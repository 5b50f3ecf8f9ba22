open Sim
open Net

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type Payload.t += Blob of int

(* ------------------------------------------------------------------ *)
(* Spec: grammar *)

let spec s =
  match Faults.Spec.parse s with
  | Ok t -> t
  | Error m -> Alcotest.failf "parse %S: %s" s m

let test_spec_parse () =
  let t = spec "seed=42,loss=0.01,dup=0.005" in
  check_int "seed" 42 t.Faults.Spec.seed;
  Alcotest.(check (float 0.)) "loss" 0.01 t.Faults.Spec.loss;
  Alcotest.(check (float 0.)) "dup" 0.005 t.Faults.Spec.dup;
  let t = spec "burst=0.001x8" in
  Alcotest.(check (float 0.)) "burst p" 0.001 t.Faults.Spec.burst_p;
  check_int "burst len" 8 t.Faults.Spec.burst_len;
  let t = spec "part=0.5+0.2,part=1+0.1,swpart=2+1" in
  check_int "parts" 2 (List.length t.Faults.Spec.parts);
  check_int "sw parts" 1 (List.length t.Faults.Spec.sw_parts);
  (match t.Faults.Spec.parts with
   | { w_start; w_len } :: _ ->
     check_int "part start" (Time.ms 500) w_start;
     check_int "part len" (Time.ms 200) w_len
   | [] -> Alcotest.fail "no window");
  let t = spec "reorder=0.1,rdelay=250" in
  check_int "rdelay" (Time.us 250) t.Faults.Spec.reorder_delay;
  check_bool "null spec" true (Faults.Spec.is_null (spec "seed=9"));
  check_bool "loss not null" false (Faults.Spec.is_null (Faults.Spec.loss 0.01))

let test_spec_parse_errors () =
  let bad s =
    match Faults.Spec.parse s with
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
    | Error _ -> ()
  in
  bad "loss=1.5";
  bad "loss=x";
  bad "frobnicate=1";
  bad "burst=0.1";
  bad "part=5";
  bad "seed";
  bad "rdelay=-3"

(* Round-trip: a spec printed and re-parsed is the same value.  Specs are
   derived from an integer so the probabilities (multiples of 1/1000) and
   window times (multiples of 1 ms) survive decimal printing exactly. *)
let spec_of_seed s =
  let rng = Rng.create ~seed:(s + 1) in
  let prob () = float_of_int (Rng.int rng 1001) /. 1000. in
  let pos_prob () = float_of_int (1 + Rng.int rng 1000) /. 1000. in
  let windows n = List.init n (fun _ ->
      { Faults.Spec.w_start = Time.ms (Rng.int rng 5000);
        w_len = Time.ms (Rng.int rng 2000) })
  in
  let reorder = prob () in
  let bursty = Rng.bool rng in
  { Faults.Spec.seed = Rng.int rng 100_000;
    loss = prob ();
    dup = prob ();
    corrupt = prob ();
    reorder;
    reorder_delay =
      (if reorder > 0. then Time.us (1 + Rng.int rng 5000)
       else Faults.Spec.none.Faults.Spec.reorder_delay);
    burst_p = (if bursty then pos_prob () else 0.);
    burst_len = (if bursty then 1 + Rng.int rng 16 else 0);
    parts = windows (Rng.int rng 3);
    sw_parts = windows (Rng.int rng 2);
    seq_crash = (if Rng.bool rng then Some (Time.ms (1 + Rng.int rng 5000)) else None);
  }

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"spec to_string/parse round-trips" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun s ->
      let t = spec_of_seed s in
      Faults.Spec.parse (Faults.Spec.to_string t) = Ok t)

(* ------------------------------------------------------------------ *)
(* Segment fault verdicts *)

(* A bare segment with a transmitter and a receiver logging (time, bytes). *)
let seg_rig () =
  let e = Engine.create () in
  let seg = Segment.create e "s" in
  let got = ref [] in
  let _rx =
    Segment.attach seg ~name:"rx"
      ~accepts:(fun f -> Frame.is_for ~mac:1 f)
      (fun f -> got := (Engine.now e, f.Frame.bytes) :: !got)
  in
  let tx = Segment.attach seg ~name:"tx" ~accepts:(fun _ -> false) (fun _ -> ()) in
  let send ?(at = 0) bytes =
    ignore
      (Engine.at e at (fun () ->
           Segment.transmit seg ~from:tx
             (Frame.make ~src:0 ~dest:(Frame.Unicast 1) ~bytes Payload.Empty)))
  in
  (e, seg, got, send)

let test_verdict_drop () =
  let e, seg, got, send = seg_rig () in
  Segment.set_fault seg (Some (fun _ -> Segment.Drop));
  send 100;
  send 200;
  Engine.run e;
  check_int "nothing delivered" 0 (List.length !got);
  check_int "dropped" 2 (Segment.frames_dropped seg);
  check_int "still carried" 2 (Segment.frames_carried seg)

let test_verdict_duplicate () =
  let e, seg, got, send = seg_rig () in
  let first = ref true in
  Segment.set_fault seg
    (Some (fun _ -> if !first then (first := false; Segment.Duplicate) else Segment.Pass));
  send 100;
  Engine.run e;
  Alcotest.(check (list int)) "delivered twice" [ 100; 100 ] (List.map snd !got);
  check_int "duplicated" 1 (Segment.frames_duplicated seg);
  (* The copy occupies the wire a second time, so the deliveries are two
     wire times apart. *)
  (match List.rev_map fst !got with
   | [ t1; t2 ] -> check_bool "serialized copies" true (t2 > t1)
   | _ -> Alcotest.fail "expected two deliveries")

let test_verdict_delay_reorders () =
  let e, seg, got, send = seg_rig () in
  let n = ref 0 in
  Segment.set_fault seg
    (Some (fun _ -> incr n; if !n = 1 then Segment.Delay (Time.ms 5) else Segment.Pass));
  send 100;
  send 200;
  Engine.run e;
  Alcotest.(check (list int)) "second frame overtakes" [ 200; 100 ]
    (List.rev_map snd !got);
  check_int "delayed" 1 (Segment.frames_delayed seg)

let test_partition_window () =
  let e, seg, got, send = seg_rig () in
  let s =
    Faults.Inject.install_segment e ~index:0 seg
      (spec "seed=3,part=0+0.001")
  in
  send ~at:0 100;
  (* 1 ms in: wire starts inside the window. *)
  send ~at:(Time.us 900) 100;
  (* Well past the blackout. *)
  send ~at:(Time.ms 10) 300;
  Engine.run e;
  Alcotest.(check (list int)) "only the late frame survives" [ 300 ]
    (List.rev_map snd !got);
  check_int "part drops" 2 (Faults.Inject.part_drops s);
  check_int "killed" 2 (Faults.Inject.killed s)

(* Satellite: killed frames must show up in the Obs ledger as [Fault_wire]
   under the frame's topmost protocol layer — not as [Header_wire]. *)
let test_fault_wire_ledger () =
  let e = Engine.create () in
  let seg = Segment.create e "s" in
  let tx = Segment.attach seg ~name:"tx" ~accepts:(fun _ -> false) (fun _ -> ()) in
  let frame =
    Frame.make
      ~hdr:[ (Obs.Layer.Flip, 16); (Obs.Layer.Amoeba_rpc, 56) ]
      ~src:0 ~dest:(Frame.Unicast 1) ~bytes:100 Payload.Empty
  in
  let wire = Segment.wire_time seg frame in
  let _s = Faults.Inject.install_segment e ~index:0 seg (spec "seed=1,loss=1") in
  let r = Obs.Recorder.create () in
  Obs.Recorder.install r;
  Fun.protect ~finally:Obs.Recorder.uninstall (fun () ->
      Segment.transmit seg ~from:tx frame;
      Engine.run e);
  check_int "full wire time on Fault_wire, top layer"
    wire
    (Obs.Recorder.ledger_ns r ~layer:Obs.Layer.Amoeba_rpc ~cause:Obs.Cause.Fault_wire);
  check_int "no Header_wire for killed frame" 0
    (Obs.Recorder.ledger_ns r ~layer:Obs.Layer.Flip ~cause:Obs.Cause.Header_wire);
  check_int "faults.drops counted" 1
    (Stats.counter (Obs.Recorder.stats r) "faults.drops")

(* ------------------------------------------------------------------ *)
(* Injector determinism *)

(* Drive the same synthetic traffic through a fresh segment and return the
   logged fault schedule. *)
let schedule_run ~spec:sp =
  let e = Engine.create () in
  let seg = Segment.create e "s" in
  let _rx =
    Segment.attach seg ~name:"rx" ~accepts:(fun _ -> true) (fun _ -> ())
  in
  let tx = Segment.attach seg ~name:"tx" ~accepts:(fun _ -> false) (fun _ -> ()) in
  let s = Faults.Inject.install_segment ~log:true e ~index:0 seg sp in
  for i = 0 to 299 do
    ignore
      (Engine.at e (Time.us (137 * i)) (fun () ->
           Segment.transmit seg ~from:tx
             (Frame.make ~src:0 ~dest:(Frame.Unicast 1)
                ~bytes:(40 + ((i * 97) mod 1400))
                Payload.Empty)))
  done;
  Engine.run e;
  (Faults.Inject.schedule s, s, seg)

let stress = "seed=11,loss=0.1,dup=0.05,corrupt=0.05,reorder=0.05,burst=0.01x4"

let test_schedule_deterministic () =
  let s1, _, _ = schedule_run ~spec:(spec stress) in
  let s2, _, _ = schedule_run ~spec:(spec stress) in
  check_bool "some faults injected" true (List.length s1 > 10);
  Alcotest.(check (list string)) "byte-identical schedule" s1 s2;
  let s3, _, _ = schedule_run ~spec:(spec "seed=12,loss=0.1,dup=0.05,corrupt=0.05,reorder=0.05,burst=0.01x4") in
  check_bool "different seed, different schedule" true (s1 <> s3)

let test_inject_counters_match_segment () =
  let _, s, seg = schedule_run ~spec:(spec stress) in
  check_int "drops" (Faults.Inject.drops s + Faults.Inject.burst_drops s)
    (Segment.frames_dropped seg);
  check_int "corrupts" (Faults.Inject.corrupts s) (Segment.frames_corrupted seg);
  check_int "dups" (Faults.Inject.dups s) (Segment.frames_duplicated seg);
  check_int "reorders" (Faults.Inject.reorders s) (Segment.frames_delayed seg);
  check_int "killed = drops+bursts+corrupts"
    (Faults.Inject.drops s + Faults.Inject.burst_drops s + Faults.Inject.corrupts s)
    (Faults.Inject.killed s);
  check_bool "injected counts everything" true
    (Faults.Inject.injected s >= Faults.Inject.killed s)

(* Each class draws from its own stream: enabling another class (one that
   does not add frames to the traffic) must not shift the loss schedule. *)
let test_class_independence () =
  let _, s1, _ = schedule_run ~spec:(spec "seed=11,loss=0.1") in
  let _, s2, _ = schedule_run ~spec:(spec "seed=11,loss=0.1,corrupt=0.07,reorder=0.05") in
  check_bool "losses happened" true (Faults.Inject.drops s1 > 0);
  check_int "same losses with corrupt+reorder enabled" (Faults.Inject.drops s1)
    (Faults.Inject.drops s2)

(* ------------------------------------------------------------------ *)
(* Reassembly under a faulty fragment stream (model test) *)

(* Loss, duplication and reordering applied to a fragment stream: every
   completed reassembly must be the original payload with the original
   size — never a splice — and a stream missing a fragment never
   completes. *)
let prop_reassembly_fault_model =
  QCheck.Test.make ~name:"reassembly under loss/dup/reorder: original or nothing"
    ~count:400
    QCheck.(pair (int_bound 20_000) (int_bound 1_000_000))
    (fun (size, seed) ->
      let payload = Blob seed in
      let src = Flip.Address.point 1 in
      let frags =
        Flip.Fragment.split ~src ~dst:(Flip.Address.point 2) ~msg_id:(seed + 1)
          ~mtu:1460 ~size payload
      in
      let rng = Rng.create ~seed:(seed + 17) in
      let loss_pct = Rng.int rng 40 in
      let dup_pct = Rng.int rng 60 in
      (* Per-fragment fate, then a partial shuffle for reordering. *)
      let deliveries =
        List.concat_map
          (fun f ->
            if Rng.int rng 100 < loss_pct then []
            else if Rng.int rng 100 < dup_pct then [ f; f ]
            else [ f ])
          frags
      in
      let arr = Array.of_list deliveries in
      for i = Array.length arr - 1 downto 1 do
        if Rng.bool rng then begin
          let j = Rng.int rng (i + 1) in
          let tmp = arr.(i) in
          arr.(i) <- arr.(j);
          arr.(j) <- tmp
        end
      done;
      let complete =
        let seen = Hashtbl.create 8 in
        Array.iter (fun f -> Hashtbl.replace seen f.Flip.Fragment.index ()) arr;
        Hashtbl.length seen = List.length frags
      in
      let r = Flip.Reassembly.create () in
      let completions = ref 0 in
      let intact = ref true in
      Array.iter
        (fun f ->
          match Flip.Reassembly.add r f with
          | Some (s, total, p) ->
            incr completions;
            if not (total = size && p == payload && s = src) then intact := false
          | None -> ())
        arr;
      !intact
      && (if complete then !completions >= 1 else !completions = 0))

(* ------------------------------------------------------------------ *)
(* Conformance matrix: both stacks, all six apps, three loss rates *)

let small_apps : Core.Runner.app list =
  [
    { Core.Runner.app_name = "tsp";
      app_make = (fun dom -> Apps.Tsp.make dom Apps.Tsp.test_params);
      app_reference = lazy (Apps.Tsp.sequential Apps.Tsp.test_params) };
    { Core.Runner.app_name = "asp";
      app_make = (fun dom -> Apps.Asp.make dom Apps.Asp.test_params);
      app_reference = lazy (Apps.Asp.sequential Apps.Asp.test_params) };
    { Core.Runner.app_name = "ab";
      app_make = (fun dom -> Apps.Ab.make dom Apps.Ab.test_params);
      app_reference = lazy (Apps.Ab.sequential Apps.Ab.test_params) };
    { Core.Runner.app_name = "rl";
      app_make = (fun dom -> Apps.Rl.make dom Apps.Rl.test_params);
      app_reference = lazy (Apps.Rl.sequential Apps.Rl.test_params) };
    { Core.Runner.app_name = "sor";
      app_make = (fun dom -> Apps.Sor.make dom Apps.Sor.test_params);
      app_reference = lazy (Apps.Sor.sequential Apps.Sor.test_params) };
    { Core.Runner.app_name = "leq";
      app_make = (fun dom -> Apps.Leq.make dom Apps.Leq.test_params);
      app_reference = lazy (Apps.Leq.sequential Apps.Leq.test_params) };
  ]

let rates = [ 0.001; 0.01; 0.05 ]

let test_conformance_matrix () =
  let retrans = Hashtbl.create 4 and kills = Hashtbl.create 4 in
  List.iter
    (fun impl ->
      List.iter
        (fun app ->
          let base = Core.Runner.run ~impl ~procs:8 app in
          check_bool
            (Printf.sprintf "%s %s fault-free valid" app.Core.Runner.app_name
               (Core.Cluster.impl_label impl))
            true base.Core.Runner.o_valid;
          List.iter
            (fun rate ->
              let o =
                Core.Runner.run
                  ~faults:(Faults.Spec.loss ~seed:11 rate)
                  ~checked:true ~impl ~procs:8 app
              in
              let tag =
                Printf.sprintf "%s %s loss=%g" app.Core.Runner.app_name
                  (Core.Cluster.impl_label impl) rate
              in
              Alcotest.(check (list string)) (tag ^ ": no violations") []
                o.Core.Runner.o_violations;
              check_bool (tag ^ ": valid") true o.Core.Runner.o_valid;
              check_int (tag ^ ": result equals fault-free run")
                base.Core.Runner.o_checksum o.Core.Runner.o_checksum;
              let bump h n =
                Hashtbl.replace h impl
                  (n + Option.value ~default:0 (Hashtbl.find_opt h impl))
              in
              bump retrans o.Core.Runner.o_retrans;
              bump kills o.Core.Runner.o_fault_kills)
            rates)
        small_apps;
      (* Loss actually happened and each stack recovered from it. *)
      check_bool
        (Core.Cluster.impl_label impl ^ ": schedule killed frames")
        true
        (Hashtbl.find kills impl > 0);
      check_bool
        (Core.Cluster.impl_label impl ^ ": at least one retransmission")
        true
        (Hashtbl.find retrans impl > 0))
    [ Core.Cluster.Kernel; Core.Cluster.User; Core.Cluster.User_optimized ]

(* ------------------------------------------------------------------ *)
(* Determinism across runs and across -j fan-out *)

let outcome_key o =
  ( o.Core.Runner.o_seconds,
    o.Core.Runner.o_checksum,
    o.Core.Runner.o_events,
    o.Core.Runner.o_retrans,
    o.Core.Runner.o_fault_kills )

let test_runner_fault_determinism () =
  let tsp = List.hd small_apps in
  let faults = spec "seed=5,loss=0.02,dup=0.01,reorder=0.01" in
  let run () = Core.Runner.run ~faults ~checked:true ~impl:Core.Cluster.Kernel ~procs:8 tsp in
  let a = run () and b = run () in
  check_bool "same seed: identical final sim time and counters" true
    (outcome_key a = outcome_key b);
  check_bool "faults were injected" true (a.Core.Runner.o_fault_kills > 0)

let test_runner_jobs_deterministic () =
  let tsp = List.hd small_apps in
  let faults = spec "seed=5,loss=0.02,dup=0.01,reorder=0.01" in
  let cells =
    [ (Core.Cluster.Kernel, 8, tsp); (Core.Cluster.User, 8, tsp) ]
  in
  let ctx = { Core.Ctx.default with faults = Some faults; checked = true } in
  let seq = Core.Runner.run_many ~ctx cells in
  let par =
    Exec.Pool.with_pool ~jobs:2 (fun p ->
        Core.Runner.run_many ~ctx:{ ctx with pool = Some p } cells)
  in
  check_bool "-j 1 = -j 2 under faults" true
    (List.map outcome_key seq = List.map outcome_key par);
  List.iter
    (fun o ->
      Alcotest.(check (list string)) "no violations" [] o.Core.Runner.o_violations)
    (seq @ par)

(* ------------------------------------------------------------------ *)
(* fault_sweep driver *)

let test_fault_sweep_smoke () =
  let rows = Core.Experiments.fault_sweep ~rates:[ 0.; 0.01 ] ~procs:4 () in
  check_int "3 impls x 2 rates" 6 (List.length rows);
  List.iter
    (fun r ->
      check_bool "valid" true r.Core.Experiments.fw_valid;
      check_int "no violations" 0 r.Core.Experiments.fw_violations;
      check_bool "latency measured" true (r.Core.Experiments.fw_rpc_ms > 0.))
    rows;
  (* The lossy rows actually exercised recovery. *)
  let lossy = List.filter (fun r -> r.Core.Experiments.fw_rate > 0.) rows in
  check_bool "lossy rows injected faults" true
    (List.for_all (fun r -> r.Core.Experiments.fw_kills > 0) lossy)

(* Sweeps are reproducible-but-variable: the seed argument fully determines
   the fault schedules, and different seeds give different schedules. *)
let test_fault_sweep_seed () =
  let sweep seed =
    Core.Experiments.fault_sweep ~rates:[ 0.02 ] ~app_name:"tsp" ~procs:4 ~seed ()
  in
  let key r =
    ( r.Core.Experiments.fw_rpc_ms,
      r.Core.Experiments.fw_grp_ms,
      r.Core.Experiments.fw_app_s,
      r.Core.Experiments.fw_retrans,
      r.Core.Experiments.fw_kills )
  in
  let a = sweep 3 and b = sweep 3 and c = sweep 4 in
  check_bool "same seed: byte-identical rows" true (List.map key a = List.map key b);
  check_bool "different seed: different schedules" true
    (List.map key a <> List.map key c)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "faults"
    [
      ( "spec",
        [
          Alcotest.test_case "parse" `Quick test_spec_parse;
          Alcotest.test_case "parse errors" `Quick test_spec_parse_errors;
          QCheck_alcotest.to_alcotest prop_spec_roundtrip;
        ] );
      ( "segment",
        [
          Alcotest.test_case "drop verdict" `Quick test_verdict_drop;
          Alcotest.test_case "duplicate verdict" `Quick test_verdict_duplicate;
          Alcotest.test_case "delay reorders" `Quick test_verdict_delay_reorders;
          Alcotest.test_case "partition window" `Quick test_partition_window;
          Alcotest.test_case "fault_wire ledger" `Quick test_fault_wire_ledger;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "schedule byte-identical" `Quick test_schedule_deterministic;
          Alcotest.test_case "counters match segment" `Quick test_inject_counters_match_segment;
          Alcotest.test_case "class independence" `Quick test_class_independence;
          Alcotest.test_case "runner same-seed" `Quick test_runner_fault_determinism;
          Alcotest.test_case "runner -j fan-out" `Quick test_runner_jobs_deterministic;
        ] );
      ("reassembly", [ QCheck_alcotest.to_alcotest prop_reassembly_fault_model ]);
      ( "conformance",
        [
          Alcotest.test_case "six apps x two stacks x three rates" `Slow
            test_conformance_matrix;
          Alcotest.test_case "fault sweep" `Slow test_fault_sweep_smoke;
          Alcotest.test_case "fault sweep seed" `Slow test_fault_sweep_seed;
        ] );
    ]
