(* The simulator benchmark.

     dune exec --root . --cache=disabled -- ./simbench/main.exe \
       --workload orca-apps --seed 1 --seconds 40 --trace 0
     dune exec --root . --cache=disabled -- ./simbench/main.exe --self-test

   [--trace 0] repeats the workload, each repetition a fresh set-up and
   simulation, until [--seconds] have passed (at least [min_reps] times),
   and reports the end-to-end metrics over repetitions: the fastest time of
   each simulation, summed, and the fastest set-up, both scaled to a
   reference host speed (see [calibration]), the median allocation and
   the first repetition's peak RSS.
   [--trace 1] runs the workload once untraced and once traced (host-time
   spans around the benchmark's calls into layers, an Obs recorder over the
   whole run), checks that both give the same simulated results, runs the
   micro-shapes and reports the per-layer metrics.  The last line of
   standard output is the JSON result; the lines before it are the report
   (digest of the simulated results, counts, spans, micro-shapes). *)

let min_reps = 3

let end_to_end =
  [ ("wall_s", "s"); ("setup_s", "s"); ("peak_rss_mb", "MB"); ("alloc_mwords", "Mwords") ]

let ledger_name l = "obs.ledger_ms." ^ Obs.Layer.to_string l

let per_layer =
  [
    ("sim.events", "count"); ("sim.events_per_s", "1/s");
    ("sim.minor_words_per_event", "words"); ("sim.major_words_per_event", "words");
    ("sim.live_hw", "count"); ("sim.windows", "count"); ("sim.events_per_window", "count");
    ("sim.cross_merged", "count"); ("sim.ns_per_event", "ns"); ("sim.ns_per_timer", "ns");
    ("sim.ns_per_fiber_switch", "ns");
    ("machine.ctx_switches", "count"); ("machine.ns_per_charge", "ns");
    ("net.frames", "count"); ("net.switch_forwarded", "count"); ("net.ns_per_frame", "ns");
    ("flip.locates", "count"); ("flip.packets_out", "count"); ("flip.ns_per_packet", "ns");
    ("amoeba.rpc_trans", "count"); ("amoeba.group_ordered", "count");
    ("amoeba.retrans", "count"); ("amoeba.ns_per_trans", "ns");
    ("panda.rpc_trans", "count"); ("panda.group_ordered", "count"); ("panda.retrans", "count");
    ("panda.history_len", "count"); ("panda.ns_per_trans", "ns");
    ("panda.ns_per_group_send", "ns");
    ("onesided.target_ops", "count"); ("onesided.retrans", "count");
    ("onesided.ns_per_read", "ns");
    ("orca.broadcasts", "count"); ("orca.remote_invocations", "count");
    ("orca.parked", "count"); ("orca.ns_per_invoke", "ns");
    ("apps.reference_s", "s");
    ("load.issued", "count"); ("load.completed_frac", "ratio"); ("load.ns_per_key_draw", "ns");
    ("shard.ops", "count"); ("shard.relays", "count"); ("shard.ns_per_route", "ns");
    ("faults.killed", "count"); ("faults.violations", "count");
    ("obs.trace_overhead", "ratio");
  ]
  @ List.map (fun l -> (ledger_name l, "ms")) Obs.Layer.all

(* Protocol transactions are counted from the traced run's Obs spans:
   the stacks' own counters sit behind the Orca backends' closures. *)
let span_counts =
  [
    ("amoeba.rpc_trans", Obs.Layer.Amoeba_rpc, "trans");
    ("amoeba.group_ordered", Obs.Layer.Amoeba_grp, "send");
    ("panda.rpc_trans", Obs.Layer.Panda_rpc, "trans");
    ("panda.group_ordered", Obs.Layer.Panda_grp, "sequence");
  ]

let valid_name n =
  n <> ""
  && String.length n <= 64
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       n

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Process peak resident set, from /proc (VmHWM, kB). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

type rep = {
  result : Workloads.result;
  meter : Workloads.meter;
  events : int;
  live_hw : int;
  digest : string;
}

let rep ?spans ?recorder workload scale ~seed =
  Workloads.fresh_heap ();
  Sim.Engine.reset_live_hw ();
  let e0 = Sim.Engine.events_total () in
  let meter = Workloads.meter ?spans ?recorder () in
  let result =
    Fun.protect ~finally:Obs.Recorder.uninstall (fun () -> workload scale ~seed meter)
  in
  {
    result;
    meter;
    events = Sim.Engine.events_total () - e0;
    live_hw = Sim.Engine.live_hw ();
    digest = Digest.to_hex (Digest.string result.Workloads.digest);
  }

let print_rep label r =
  let m = r.meter in
  Printf.printf "%s setup %.4f s  sim %.4f s  alloc %.3f Mwords  events %d  attempted %d  failed %d  digest %s\n"
    label m.Workloads.setup_s m.Workloads.sim_s (m.Workloads.words /. 1e6) r.events
    r.result.Workloads.attempted r.result.Workloads.failed r.digest;
  List.iter (fun (n, dt) -> Printf.printf "  %s %.4f s\n" n dt) (List.rev m.Workloads.sim_phases)

let print_result ~correct ~attempted ~failed metrics =
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let with_units names values =
  List.map (fun (name, unit) -> (name, unit, List.assoc name values)) names

(* Host speed.  Co-tenants of the host slow everything in this process,
   by up to 2x and in spells of seconds to minutes, so a whole run can
   fall in a slow spell.  A fixed loop of the simulator's kind of work
   (allocation and pointer chasing: a balanced-tree map built from random
   keys) is timed on a freshly compacted heap before every repetition.
   Host times are scaled by [calibration_ref_s] over the run's fastest
   loop, i.e. to the loop's speed on an unloaded 2.1 GHz Xeon VM.  The
   loop is the benchmark's own code, so a change to the simulator moves
   the simulation times and not the scale. *)
module Int_map = Map.Make (Int)

let calibration_ref_s = 0.0274

let calibration () =
  let once () =
    let rng = Random.State.make [| 42 |] in
    let m = ref Int_map.empty in
    for i = 1 to 60_000 do
      m := Int_map.add (Random.State.bits rng) i !m
    done;
    Int_map.fold (fun _ v a -> a + v) !m 0
  in
  Workloads.fresh_heap ();
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (once ()));
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let run_untraced workload ~seed ~seconds =
  let t0 = Unix.gettimeofday () in
  let peak = ref 0. and calibrated = ref infinity in
  let rec loop acc =
    let elapsed = Unix.gettimeofday () -. t0 in
    let n = List.length acc in
    if n >= min_reps && elapsed +. (elapsed /. float_of_int n) > float_of_int seconds then
      List.rev acc
    else begin
      calibrated := Float.min !calibrated (calibration ());
      let r = rep workload Workloads.Full ~seed in
      print_rep (Printf.sprintf "rep %d" (n + 1)) r;
      (* Peak RSS of one repetition: later ones also hold what earlier
         simulations left reachable. *)
      if n = 0 then peak := peak_rss_mb ();
      loop (r :: acc)
    end
  in
  let reps = loop [] in
  let med f = median (List.map f reps) in
  let fastest f = List.fold_left (fun a r -> Float.min a (f r)) infinity reps in
  (* Co-tenants only ever add time, so each host time is the fastest over
     the run.  Simulations are timed separately (the stacks of
     cluster-zipf, the apps of orca-apps), so a quiet spell need only
     cover one simulation, not a whole repetition. *)
  let phase_names = List.map fst (List.hd reps).meter.Workloads.sim_phases in
  let wall =
    List.fold_left
      (fun acc name ->
        acc +. fastest (fun r -> List.assoc name r.meter.Workloads.sim_phases))
      0. phase_names
  in
  let setup = fastest (fun r -> r.meter.Workloads.setup_s) in
  let scale = calibration_ref_s /. !calibrated in
  Printf.printf "fastest: sim %.4f s  setup %.6f s  calibration %.5f s  (scale %.4f)\n" wall
    setup !calibrated scale;
  let attempted = List.fold_left (fun a r -> a + r.result.Workloads.attempted) 0 reps in
  let failed = List.fold_left (fun a r -> a + r.result.Workloads.failed) 0 reps in
  let first = List.hd reps in
  let same_digest = List.for_all (fun r -> r.digest = first.digest) reps in
  Printf.printf "digest %s%s\n" first.digest (if same_digest then "" else " (REPS DIFFER)");
  print_string first.result.Workloads.digest;
  print_result
    ~correct:(failed = 0 && same_digest)
    ~attempted ~failed
    (with_units end_to_end
       [
         ("wall_s", wall *. scale);
         ("setup_s", setup *. scale);
         ("peak_rss_mb", !peak);
         ("alloc_mwords", med (fun r -> r.meter.Workloads.words /. 1e6));
       ])

let ratio a b = if b = 0. then 0. else a /. b

(* The per-layer metrics of one untraced repetition [u], its traced twin
   [t] (recorder [recorder]) and the micro-shapes. *)
let layer_metrics ~name u t recorder shapes history =
  let fi = float_of_int in
  let count n = fi (Option.value ~default:0 (List.assoc_opt n u.result.Workloads.counts)) in
  let m = u.meter in
  let events = fi u.events in
  let windows = count "sim.windows" in
  let spans = Obs.Recorder.spans recorder in
  let span_count layer sp_name =
    List.fold_left
      (fun acc s ->
        if s.Obs.Recorder.sp_layer = layer && s.Obs.Recorder.sp_name = sp_name then acc + 1
        else acc)
      0 spans
  in
  let counted =
    List.map
      (fun n -> (n, count n))
      [ "sim.windows"; "sim.cross_merged"; "machine.ctx_switches"; "net.frames";
        "net.switch_forwarded"; "flip.locates"; "flip.packets_out"; "amoeba.retrans";
        "panda.retrans"; "onesided.target_ops"; "onesided.retrans"; "orca.broadcasts";
        "orca.remote_invocations"; "orca.parked"; "load.issued"; "shard.ops"; "shard.relays";
        "faults.killed"; "faults.violations" ]
  in
  [
    ("sim.events", events);
    ("sim.events_per_s", ratio events m.Workloads.sim_s);
    ("sim.minor_words_per_event", ratio m.Workloads.sim_words events);
    ("sim.major_words_per_event", ratio m.Workloads.sim_major_words events);
    ("sim.live_hw", fi u.live_hw);
    ("sim.events_per_window", ratio events windows);
    ("panda.history_len", fi history);
    ("apps.reference_s", if name = "orca-apps" then m.Workloads.setup_s else 0.);
    ( "load.completed_frac",
      let a = fi u.result.Workloads.attempted in
      ratio (a -. fi u.result.Workloads.failed) a );
    ("obs.trace_overhead", ratio t.meter.Workloads.sim_s m.Workloads.sim_s -. 1.);
  ]
  @ counted
  @ List.map (fun (n, layer, sp) -> (n, fi (span_count layer sp))) span_counts
  @ List.map (fun s -> (s.Micro.name, s.Micro.ns)) shapes
  @ List.map
      (fun l -> (ledger_name l, fi (Obs.Recorder.layer_ns recorder l) /. 1e6))
      Obs.Layer.all

let run_traced ~name workload scale ~seed ~micro_percent =
  let u = rep workload scale ~seed in
  print_rep "untraced" u;
  let spans = Spans.create () and recorder = Obs.Recorder.create () in
  let t = rep ~spans ~recorder workload scale ~seed in
  print_rep "traced  " t;
  Spans.print stdout spans;
  Printf.printf "obs.trace_overhead %.4f (traced sim %.4f s / untraced sim %.4f s - 1)\n"
    ((t.meter.Workloads.sim_s /. u.meter.Workloads.sim_s) -. 1.) t.meter.Workloads.sim_s
    u.meter.Workloads.sim_s;
  let same = t.digest = u.digest in
  Printf.printf "digest %s (traced run %s)\n" u.digest
    (if same then "reproduces it" else "DIFFERS: " ^ t.digest);
  print_string u.result.Workloads.digest;
  List.iter
    (fun (n, v) -> Printf.printf "count %-26s %d\n" n v)
    (List.sort compare u.result.Workloads.counts);
  let shapes, history = Micro.run micro_percent in
  Micro.print stdout shapes;
  let values = layer_metrics ~name u t recorder shapes history in
  let attempted = u.result.Workloads.attempted + t.result.Workloads.attempted in
  let failed = u.result.Workloads.failed + t.result.Workloads.failed in
  (same && failed = 0, attempted, failed, values)

(* ---- self-test: tiny scale, no timing claims ---- *)

let self_test () =
  let ok = ref true in
  let check what cond =
    if not cond then begin
      ok := false;
      Printf.eprintf "FAIL %s\n" what
    end
  in
  let names = List.map fst (end_to_end @ per_layer) in
  check "metric names valid" (List.for_all valid_name names);
  check "metric names unique" (List.length (List.sort_uniq compare names) = List.length names);
  List.iter
    (fun (wname, workload) ->
      let run () = rep workload Workloads.Tiny ~seed:7 in
      let a = run () and b = run () in
      check (wname ^ " completes with no failure")
        (a.result.Workloads.attempted > 0 && a.result.Workloads.failed = 0);
      check (wname ^ " digest repeats") (a.digest = b.digest);
      check (wname ^ " counts repeat")
        (List.sort compare a.result.Workloads.counts = List.sort compare b.result.Workloads.counts);
      check (wname ^ " events repeat") (a.events = b.events);
      let _, _, _, values =
        run_traced ~name:wname workload Workloads.Tiny ~seed:7 ~micro_percent:1
      in
      check (wname ^ " traced run emits exactly the per-layer metrics")
        (List.sort compare (List.map fst values) = List.sort compare (List.map fst per_layer)))
    Workloads.all;
  (* A conformance violation is a failed operation: one per checker, and
     cluster-zipf has one checker per stack. *)
  let violating =
    Workloads.cluster_zipf ~check:(fun () -> [ "injected violation" ]) Workloads.Tiny ~seed:7
      (Workloads.meter ())
  in
  check "a violation counts as a failed operation"
    (violating.Workloads.failed = List.length Workloads.zipf_stacks);
  (* An app whose checksum disagrees with its reference is a failed run. *)
  let cells =
    List.map
      (fun (impl, a) ->
        (impl, { a with Core.Runner.app_reference = lazy (Lazy.force a.Core.Runner.app_reference + 1) }))
      (Workloads.orca_cells Workloads.Tiny ~seed:7)
  in
  let bad = Workloads.orca_apps_with Workloads.Tiny cells (Workloads.meter ()) in
  check "an invalid checksum counts as a failed operation" (bad.Workloads.failed = 2);
  if !ok then print_endline "simbench self-test: ok" else exit 1

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe --self-test";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--self-test" ] then self_test ()
  else begin
    let rec parse acc = function
      | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let name = get "--workload" in
    let workload =
      match List.assoc_opt name Workloads.all with
      | Some w -> w
      | None ->
        Printf.eprintf "unknown workload %S\n" name;
        exit 2
    in
    let seed = int "--seed" and seconds = int "--seconds" in
    Printf.printf "simbench %s seed %d\n" name seed;
    match int "--trace" with
    | 0 -> run_untraced workload ~seed ~seconds
    | 1 ->
      let correct, attempted, failed, values =
        run_traced ~name workload Workloads.Full ~seed ~micro_percent:100
      in
      print_result ~correct ~attempted ~failed (with_units per_layer values)
    | _ -> usage ()
  end
