type stats = {
  mutable drops : int;
  mutable bursts : int;
  mutable burst_drops : int;
  mutable corrupts : int;
  mutable dups : int;
  mutable reorders : int;
  mutable part_drops : int;
  mutable sw_drops : int;
  mutable log_rev : string list;
  logging : bool;
}

let create_stats ~log =
  {
    drops = 0;
    bursts = 0;
    burst_drops = 0;
    corrupts = 0;
    dups = 0;
    reorders = 0;
    part_drops = 0;
    sw_drops = 0;
    log_rev = [];
    logging = log;
  }

let note stats eng ~where ~kind (frame : Net.Frame.t) =
  if Obs.Recorder.recording () then
    Obs.Recorder.count (Printf.sprintf "faults.%s" kind) 1;
  if stats.logging then
    stats.log_rev <-
      Printf.sprintf "t=%d %s %s src=%d bytes=%d" (Sim.Engine.now eng) where kind
        frame.Net.Frame.src frame.Net.Frame.bytes
      :: stats.log_rev

let in_window windows now =
  List.exists
    (fun w -> now >= w.Spec.w_start && now < w.Spec.w_start + w.Spec.w_len)
    windows

(* Independent deterministic stream per (segment, fault class): any mixing
   of the seed with the indices works as long as it is injective and fixed
   forever. *)
let stream spec index cls =
  Sim.Rng.create
    ~seed:((spec.Spec.seed * 1_000_003) + (7919 * (index + 1)) + (104_729 * cls))

let install_segment ?(log = false) ?stats eng ~index seg (spec : Spec.t) =
  let stats = match stats with Some s -> s | None -> create_stats ~log in
  if not (Spec.is_null spec) then begin
    let rng_burst = stream spec index 0 in
    let rng_loss = stream spec index 1 in
    let rng_corrupt = stream spec index 2 in
    let rng_dup = stream spec index 3 in
    let rng_reorder = stream spec index 4 in
    let burst_left = ref 0 in
    let where = Printf.sprintf "seg=%d" index in
    let roll rng p = p > 0. && Sim.Rng.float rng 1.0 < p in
    Net.Segment.set_fault seg
      (Some
         (fun frame ->
           let now = Sim.Engine.now eng in
           (* Every enabled class draws from its own stream on every frame
              before the verdict is picked, so each class's schedule is a
              pure function of the frame sequence: enabling or disabling
              another class cannot perturb it. *)
           let burst = spec.burst_len > 0 && roll rng_burst spec.burst_p in
           let lose = roll rng_loss spec.loss in
           let corrupt = roll rng_corrupt spec.corrupt in
           let dup = roll rng_dup spec.dup in
           let reorder = roll rng_reorder spec.reorder in
           if in_window spec.parts now then begin
             stats.part_drops <- stats.part_drops + 1;
             note stats eng ~where ~kind:"part_drops" frame;
             Net.Segment.Drop
           end
           else if !burst_left > 0 then begin
             decr burst_left;
             stats.burst_drops <- stats.burst_drops + 1;
             note stats eng ~where ~kind:"burst_drops" frame;
             Net.Segment.Drop
           end
           else if burst then begin
             burst_left := spec.burst_len - 1;
             stats.bursts <- stats.bursts + 1;
             stats.burst_drops <- stats.burst_drops + 1;
             note stats eng ~where ~kind:"bursts" frame;
             Net.Segment.Drop
           end
           else if lose then begin
             stats.drops <- stats.drops + 1;
             note stats eng ~where ~kind:"drops" frame;
             Net.Segment.Drop
           end
           else if corrupt then begin
             stats.corrupts <- stats.corrupts + 1;
             note stats eng ~where ~kind:"corrupts" frame;
             Net.Segment.Corrupt
           end
           else if dup then begin
             stats.dups <- stats.dups + 1;
             note stats eng ~where ~kind:"dups" frame;
             Net.Segment.Duplicate
           end
           else if reorder then begin
             stats.reorders <- stats.reorders + 1;
             note stats eng ~where ~kind:"reorders" frame;
             Net.Segment.Delay spec.reorder_delay
           end
           else Net.Segment.Pass))
  end;
  stats

let install ?(log = false) eng (topo : Net.Topology.t) (spec : Spec.t) =
  let stats = create_stats ~log in
  if not (Spec.is_null spec) then begin
    Array.iteri
      (fun index seg -> ignore (install_segment ~log ~stats eng ~index seg spec))
      topo.Net.Topology.segments;
    match (topo.Net.Topology.switch, spec.sw_parts) with
    | Some sw, _ :: _ ->
      Net.Switch.set_fault sw
        (Some
           (fun frame ->
             let now = Sim.Engine.now eng in
             if in_window spec.sw_parts now then begin
               stats.sw_drops <- stats.sw_drops + 1;
               note stats eng ~where:"switch" ~kind:"switch_drops" frame;
               true
             end
             else false))
    | _ -> ()
  end;
  stats

let drops s = s.drops
let bursts s = s.bursts
let burst_drops s = s.burst_drops
let corrupts s = s.corrupts
let dups s = s.dups
let reorders s = s.reorders
let part_drops s = s.part_drops
let switch_drops s = s.sw_drops
let killed s = s.drops + s.burst_drops + s.corrupts + s.part_drops + s.sw_drops
let injected s = killed s + s.dups + s.reorders
let schedule s = List.rev s.log_rev

let pp fmt s =
  Format.fprintf fmt
    "drops=%d bursts=%d(%d frames) corrupts=%d dups=%d reorders=%d part=%d switch=%d"
    s.drops s.bursts s.burst_drops s.corrupts s.dups s.reorders s.part_drops
    s.sw_drops
