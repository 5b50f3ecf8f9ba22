(* lib/scenario: trace replay, loss x load tail grids, soak runs and
   cost-profile calibration. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- traces --- *)

let entry_gen =
  QCheck.Gen.(
    map2
      (fun at size -> { Load.Trace.at; size })
      (* microsecond-grid offsets up to ~100 s: what the text format's
         three decimals represent exactly *)
      (map (fun us -> us * 1_000) (int_bound 100_000_000))
      (int_bound 8_192))

let trace_arb =
  QCheck.make
    ~print:(fun t -> Load.Trace.to_string t)
    QCheck.Gen.(
      map
        (fun es ->
          Load.Trace.of_entries
            (List.sort (fun a b -> compare a.Load.Trace.at b.Load.Trace.at) es))
        (list_size (int_bound 50) entry_gen))

let trace_roundtrip =
  QCheck.Test.make ~name:"trace parse/print round-trip" ~count:300 trace_arb
    (fun t ->
      match Load.Trace.parse (Load.Trace.to_string t) with
      | Ok t' -> t = t'
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

let test_trace_parse_errors () =
  let bad s =
    match Load.Trace.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parse accepted %S" s
  in
  bad "1.0 64\n0.5 64\n";
  (* unsorted *)
  bad "-1.0 64\n";
  bad "1.0 -3\n";
  bad "1.0\n";
  bad "x y\n";
  (match Load.Trace.parse "# comment\n\n 0.000 0 \n12.500 64\n" with
   | Ok t ->
     check_int "entries" 2 (Load.Trace.length t);
     check_int "second at" (Sim.Time.us_f 12.5) t.(1).Load.Trace.at
   | Error e -> Alcotest.fail e)

let test_trace_scale () =
  let t =
    Load.Trace.of_entries
      [ { Load.Trace.at = 0; size = 1 }; { at = Sim.Time.ms 10; size = 2 } ]
  in
  check_bool "identity" true (Load.Trace.scale 1. t = t);
  let half = Load.Trace.scale 0.5 t in
  check_int "compressed" (Sim.Time.ms 5) (Load.Trace.duration half)

let synth ?(rate = 500.) ?(seed = 7) () =
  Load.Trace.synthesize ~rate ~duration:(Sim.Time.sec 2) ~seed ()

let test_synthesize_deterministic () =
  check_bool "same seed same trace" true (synth () = synth ());
  check_bool "seed changes trace" true (synth () <> synth ~seed:8 ());
  let t = synth () in
  check_bool "non-empty" true (Load.Trace.length t > 0);
  check_bool "fits duration" true (Load.Trace.duration t <= Sim.Time.sec 2);
  (* File round-trip. *)
  let path = Filename.temp_file "trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Load.Trace.save path t;
      match Load.Trace.load path with
      | Ok t' -> check_bool "file round-trip" true (t = t')
      | Error e -> Alcotest.fail e)

let test_synthesize_diurnal_shape () =
  (* Period = duration, floor 0.1: the raised cosine troughs at the ends
     and peaks mid-trace, so the middle quarter must hold several times
     the arrivals of the first quarter. *)
  let t = synth ~rate:2000. () in
  let q = Sim.Time.ms 500 in
  let count lo hi =
    Array.fold_left
      (fun n e ->
        if e.Load.Trace.at >= lo && e.Load.Trace.at < hi then n + 1 else n)
      0 t
  in
  let head = count 0 q and mid = count (Sim.Time.ms 750) (Sim.Time.ms 1250) in
  check_bool
    (Printf.sprintf "mid quarter (%d) >> first quarter (%d)" mid head)
    true
    (mid > 3 * head)

(* --- replay --- *)

let with_trace_file t f =
  let path = Filename.temp_file "replay" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Load.Trace.save path t;
      f path)

let replay_cfg ?(scale = 1.) path tr =
  {
    Load.Clients.default with
    Load.Clients.arrival =
      Load.Arrival.Replay { rp_path = path; rp_scale = scale };
    warmup = 0;
    window = Load.Trace.duration (Load.Trace.scale scale tr) + Sim.Time.ms 500;
  }

let test_replay_deterministic () =
  let tr = synth ~rate:300. () in
  with_trace_file tr (fun path ->
      let run () =
        Core.Experiments.load_cell ~nodes:4 ~impl:Core.Cluster.User
          (replay_cfg path tr) ()
      in
      let m1 = run () and m2 = run () in
      check_bool "rerun identical" true (m1 = m2);
      (* Entries are dealt round-robin to the whole client population;
         every scheduled arrival lands inside the window. *)
      check_int "all entries issued" (Load.Trace.length tr)
        m1.Load.Metrics.issued;
      check_bool "replay completes" true
        (m1.Load.Metrics.completed > 0
        && m1.Load.Metrics.completed <= m1.Load.Metrics.issued);
      check_bool "p99.9 at least p99" true
        (m1.Load.Metrics.p999_ms >= m1.Load.Metrics.p99_ms))

let test_replay_scale () =
  let tr = synth ~rate:300. () in
  with_trace_file tr (fun path ->
      let at scale =
        Core.Experiments.load_cell ~nodes:4 ~impl:Core.Cluster.User
          (replay_cfg ~scale path tr) ()
      in
      let m1 = at 1. and m05 = at 0.5 in
      check_int "same entries issued" m1.Load.Metrics.issued
        m05.Load.Metrics.issued;
      check_bool "compressed trace offers more load" true
        (m05.Load.Metrics.offered > 1.5 *. m1.Load.Metrics.offered))

(* --- tail grid --- *)

let quick_grid ?pool () =
  Core.Experiments.tail_grid ~ctx:{ Core.Ctx.default with pool } ~nodes:4
    ~config:{ Load.Clients.default with Load.Clients.window = Sim.Time.ms 500 }
    ~losses:[ 0.01 ] ~rates:[ 200. ] ~impls:[ Core.Cluster.User ] ()

let test_tail_grid_amplification () =
  match quick_grid () with
  | [ base; lossy ] ->
    check_bool "baseline prepended" true (base.Core.Experiments.tc_loss = 0.);
    check_bool "baseline amp99 = 1" true (base.Core.Experiments.tc_amp99 = 1.);
    (* One lost frame parks its caller for the 200 ms retransmission
       timeout: at sub-2 ms baseline tails, 1% loss must blow p99 up by
       well over an order of magnitude. *)
    check_bool
      (Printf.sprintf "amp99 %.1f > 10" lossy.Core.Experiments.tc_amp99)
      true
      (lossy.Core.Experiments.tc_amp99 > 10.);
    check_bool "p99.9 tail at least p99" true
      (lossy.Core.Experiments.tc_metrics.Load.Metrics.p999_ms
      >= lossy.Core.Experiments.tc_metrics.Load.Metrics.p99_ms)
  | cells -> Alcotest.failf "expected 2 cells, got %d" (List.length cells)

let test_tail_grid_pool_identical () =
  let seq = quick_grid () in
  let pooled = Exec.Pool.with_pool ~jobs:2 (fun pool -> quick_grid ~pool ()) in
  check_bool "-j1 = -j2" true (seq = pooled);
  check_bool "rerun identical" true (seq = quick_grid ())

(* --- calibration --- *)

let test_calibrate_golden_net10m () =
  (* The acceptance gate: fitting the 1995 profile from its own probe
     observables recovers every constant bit-exactly. *)
  let m = Scenario.Calibrate.measure ~net:Core.Params.net10m () in
  match Scenario.Calibrate.fit m with
  | Error e -> Alcotest.failf "fit failed: %s" e
  | Ok p ->
    check_bool "segment constants" true
      (p.Core.Params.np_segment = Core.Params.net10m.Core.Params.np_segment);
    check_bool "nic constants" true
      (p.Core.Params.np_nic = Core.Params.net10m.Core.Params.np_nic);
    check_int "switch latency" Core.Params.net10m.Core.Params.np_switch
      p.Core.Params.np_switch;
    let ref_ms, fit_ms =
      Scenario.Calibrate.verify ~reference:Core.Params.net10m p
    in
    check_bool "verify latencies equal" true (ref_ms = fit_ms)

let test_calibrate_all_eras () =
  List.iter
    (fun net ->
      match Scenario.Calibrate.fit (Scenario.Calibrate.measure ~net ()) with
      | Error e -> Alcotest.failf "%s: fit failed: %s" net.Core.Params.np_name e
      | Ok p ->
        check_bool
          (net.Core.Params.np_name ^ " constants recovered")
          true
          (p.Core.Params.np_segment = net.Core.Params.np_segment
          && p.Core.Params.np_nic = net.Core.Params.np_nic
          && p.Core.Params.np_switch = net.Core.Params.np_switch))
    Core.Params.net_profiles

let test_profile_file_roundtrip () =
  List.iter
    (fun p ->
      match
        Core.Params.net_profile_parse (Core.Params.net_profile_to_string p)
      with
      | Ok p' -> check_bool (p.Core.Params.np_name ^ " round-trips") true (p = p')
      | Error e -> Alcotest.failf "%s: %s" p.Core.Params.np_name e)
    Core.Params.net_profiles;
  (match Core.Params.net_profile_parse "name x\n" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "accepted profile with missing keys");
  let path = Filename.temp_file "profile" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Core.Params.net_profile_save path Core.Params.net1g;
      match Core.Params.net_profile_load path with
      | Ok p -> check_bool "file round-trip" true (p = Core.Params.net1g)
      | Error e -> Alcotest.fail e)

(* A saved profile file must drive [--profile] through the run-context
   term both front ends share, exactly like the built-in era. *)
let test_profile_file_flag () =
  let path = Filename.temp_file "fitted" ".profile" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Core.Params.net_profile_save path Core.Params.net1g;
      let net_of argv =
        let cmd =
          Cmdliner.Cmd.v (Cmdliner.Cmd.info "t")
            Cmdliner.Term.(
              const (fun (r : Front.Args.runner) -> r.with_ctx (fun ctx -> ctx.Core.Ctx.net))
              $ Front.Args.ctx_term)
        in
        match Cmdliner.Cmd.eval_value ~argv cmd with
        | Ok (`Ok net) -> net
        | _ -> Alcotest.fail "profile flag rejected"
      in
      check_bool "file parses to the saved era" true
        (net_of [| "t"; "--profile"; path; "-j"; "1" |] = Core.Params.net1g);
      check_bool "era names still parse" true
        (net_of [| "t"; "--profile"; "net100m"; "-j"; "1" |] = Core.Params.net100m))

(* --- soak --- *)

let soak_cfg =
  {
    Scenario.Soak.default with
    Scenario.Soak.sk_rate = 300.;
    sk_windows = 4;
    sk_policy = Panda.Seq_policy.Failover;
    sk_op = Load.Clients.Group;
    sk_faults = Some (Result.get_ok (Faults.Spec.parse "seed=5,loss=0.01,seqcrash=0.4"));
  }

let test_soak_zero_violations () =
  let r = Scenario.Soak.run soak_cfg in
  check_int "window count" 4 (List.length r.Scenario.Soak.r_windows);
  check_bool "work done" true (r.Scenario.Soak.r_completed > 0);
  check_bool "seqcrash noted" true r.Scenario.Soak.r_seq_crashed;
  check_int "zero violations" 0 r.Scenario.Soak.r_violations;
  check_bool "p99.9 at least p99" true
    (r.Scenario.Soak.r_p999_ms >= r.Scenario.Soak.r_p99_ms);
  (* The ramp breathes: not every window sees the same offered load. *)
  let offered =
    List.map (fun w -> w.Scenario.Soak.w_offered) r.Scenario.Soak.r_windows
  in
  check_bool "diurnal variation" true
    (List.fold_left Float.max 0. offered
    > 1.2 *. List.fold_left Float.min infinity offered)

let test_soak_deterministic () =
  check_bool "rerun identical" true
    (Scenario.Soak.run soak_cfg = Scenario.Soak.run soak_cfg)

let () =
  Alcotest.run "scenario"
    [
      ( "trace",
        [
          QCheck_alcotest.to_alcotest trace_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_trace_parse_errors;
          Alcotest.test_case "scale" `Quick test_trace_scale;
          Alcotest.test_case "synthesize deterministic" `Quick
            test_synthesize_deterministic;
          Alcotest.test_case "diurnal shape" `Quick test_synthesize_diurnal_shape;
        ] );
      ( "replay",
        [
          Alcotest.test_case "deterministic" `Quick test_replay_deterministic;
          Alcotest.test_case "time scaling" `Quick test_replay_scale;
        ] );
      ( "tail-grid",
        [
          Alcotest.test_case "loss amplifies tails" `Quick
            test_tail_grid_amplification;
          Alcotest.test_case "pool identical" `Quick test_tail_grid_pool_identical;
        ] );
      ( "calibrate",
        [
          Alcotest.test_case "net10m golden" `Quick test_calibrate_golden_net10m;
          Alcotest.test_case "all eras" `Quick test_calibrate_all_eras;
          Alcotest.test_case "profile files" `Quick test_profile_file_roundtrip;
          Alcotest.test_case "profile file through --profile" `Quick test_profile_file_flag;
        ] );
      ( "soak",
        [
          Alcotest.test_case "zero violations" `Quick test_soak_zero_violations;
          Alcotest.test_case "deterministic" `Quick test_soak_deterministic;
        ] );
    ]
