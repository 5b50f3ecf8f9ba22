type config = {
  rx_base : Sim.Time.span;
  rx_byte : Sim.Time.span;
  rx_mcast_extra : Sim.Time.span;
}

let default_config =
  { rx_base = Sim.Time.us 50; rx_byte = Sim.Time.ns 50; rx_mcast_extra = Sim.Time.us 45 }

type t = {
  mach : Machine.Mach.t;
  config : config;
  seg : Segment.t;
  mutable attachment : Segment.attachment option;
  mutable rx : (Frame.t -> unit) option;
  mutable received : int;
  mutable sent : int;
}

let mac t = Machine.Mach.id t.mach
let machine t = t.mach
let segment t = t.seg

let deliver t frame =
  t.received <- t.received + 1;
  let mcast_extra =
    match frame.Frame.dest with
    | Frame.Unicast _ -> 0
    | Frame.Multicast | Frame.Broadcast -> t.config.rx_mcast_extra
  in
  let cost = t.config.rx_base + mcast_extra + (frame.Frame.bytes * t.config.rx_byte) in
  (* Attribution splits the unchanged total: fixed reception work to the
     NIC, per-byte time to copying — except header bytes, whose per-byte
     reception time is billed to the layer that put the header on the
     wire. *)
  if Obs.Recorder.recording () then begin
    let hdr_bytes = Frame.hdr_bytes frame in
    (* The header share of rx time is CPU time charged as Header_wire (so
       the header-cost measurement matches the analytic differential); this
       counter lets the ledger-vs-busy-time invariant stay exact. *)
    Obs.Recorder.count "obs.nic.header_rx_ns" (hdr_bytes * t.config.rx_byte);
    Obs.Recorder.charge ~layer:Obs.Layer.Nic ~cause:Obs.Cause.Proto_proc
      (t.config.rx_base + mcast_extra);
    Obs.Recorder.charge ~layer:Obs.Layer.Nic ~cause:Obs.Cause.Copy
      ((frame.Frame.bytes - hdr_bytes) * t.config.rx_byte);
    List.iter
      (fun (ly, b) ->
        Obs.Recorder.charge ~layer:ly ~cause:Obs.Cause.Header_wire (b * t.config.rx_byte))
      frame.Frame.hdr
  end;
  Machine.Mach.interrupt t.mach ~layer:Obs.Layer.Nic ~itemized:cost ~name:"nic.rx"
    ~cost (fun () ->
      match t.rx with
      | Some handler -> handler frame
      | None -> ())

let create mach ?(config = default_config) seg =
  let t = { mach; config; seg; attachment = None; rx = None; received = 0; sent = 0 } in
  let attachment =
    Segment.attach seg
      ~name:(Machine.Mach.name mach ^ ".nic")
      ~accepts:(fun frame -> Frame.is_for ~mac:(Machine.Mach.id mach) frame)
      (fun frame -> deliver t frame)
  in
  t.attachment <- Some attachment;
  t

let set_rx t handler = t.rx <- Some handler

let send t frame =
  t.sent <- t.sent + 1;
  match t.attachment with
  | Some from -> Segment.transmit t.seg ~from frame
  | None -> assert false

let frames_received t = t.received
let frames_sent t = t.sent
