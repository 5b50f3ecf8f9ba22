(* Tests for the lib/load traffic generator and capacity analysis:
   arrival/mix parsing, knee detection, bit-identical sweeps (reruns and
   pool fan-out), closed-form sanity below the knee, the Table-2-matching
   saturation ordering at 8 KB, and the sequencer-saturation result. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Arrival processes *)

let test_arrival_uniform () =
  let rng = Sim.Rng.create ~seed:1 in
  let g = Load.Arrival.gap Load.Arrival.Uniform ~rate:1000. ~now:0 rng in
  check_int "1 kHz gap is 1 ms" (Sim.Time.ms 1) g;
  (* deterministic: no randomness consumed *)
  check_int "same gap" g
    (Load.Arrival.gap Load.Arrival.Uniform ~rate:1000. ~now:0 rng)

let test_arrival_poisson () =
  let draw seed n =
    let rng = Sim.Rng.create ~seed in
    List.init n (fun _ ->
        Load.Arrival.gap Load.Arrival.Poisson ~rate:1000. ~now:0 rng)
  in
  let a = draw 7 50 and b = draw 7 50 in
  Alcotest.(check (list int)) "same seed, same gaps" a b;
  check_bool "gaps vary" true (List.sort_uniq compare a <> [ List.hd a ]);
  check_bool "gaps non-negative" true (List.for_all (fun g -> g >= 0) a);
  (* mean of exponential gaps ~ 1/rate *)
  let mean =
    float_of_int (List.fold_left ( + ) 0 (draw 3 2000)) /. 2000.
  in
  check_bool "mean within 10% of 1 ms"
    true
    (abs_float (mean -. 1e6) < 1e5)

let test_arrival_invalid_rate () =
  let rng = Sim.Rng.create ~seed:1 in
  check_bool "zero rate rejected" true
    (match Load.Arrival.gap Load.Arrival.Uniform ~rate:0. ~now:0 rng with
     | _ -> false
     | exception Invalid_argument _ -> true);
  (* closed loop ignores the rate entirely *)
  check_int "closed think" (Sim.Time.us 500)
    (Load.Arrival.gap (Load.Arrival.Closed (Sim.Time.us 500)) ~rate:0. ~now:0 rng);
  (* replay arrivals are trace-driven, never gap draws *)
  check_bool "replay gap rejected" true
    (match
       Load.Arrival.gap
         (Load.Arrival.Replay { rp_path = "t.trace"; rp_scale = 1. })
         ~rate:100. ~now:0 rng
     with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_arrival_ramp () =
  let ramp = { Load.Arrival.rp_period = Sim.Time.sec 10; rp_floor = 0.2 } in
  (* Trough at phase 0, peak at half period. *)
  check_float "floor at phase 0" 0.2 (Load.Arrival.ramp_mult ramp ~now:0);
  check_bool "peak at half period" true
    (abs_float (Load.Arrival.ramp_mult ramp ~now:(Sim.Time.sec 5) -. 1.) < 1e-9);
  (* Gaps shrink as the multiplier rises: compare means at trough/peak. *)
  let mean_gap now =
    let rng = Sim.Rng.create ~seed:11 in
    let a = Load.Arrival.Ramp ramp in
    let n = 2000 in
    let tot =
      List.fold_left ( + ) 0
        (List.init n (fun _ -> Load.Arrival.gap a ~rate:1000. ~now rng))
    in
    float_of_int tot /. float_of_int n
  in
  let trough = mean_gap 0 and peak = mean_gap (Sim.Time.sec 5) in
  check_bool
    (Printf.sprintf "trough gaps %.0f ~ 5x peak gaps %.0f" trough peak)
    true
    (trough > 4. *. peak && trough < 6. *. peak)

let test_arrival_parse () =
  List.iter
    (fun a ->
      match Load.Arrival.parse (Load.Arrival.to_string a) with
      | Ok a' -> check_bool (Load.Arrival.to_string a) true (a = a')
      | Error e -> Alcotest.fail e)
    [ Load.Arrival.Uniform; Load.Arrival.Poisson;
      Load.Arrival.Closed (Sim.Time.us 250);
      Load.Arrival.Ramp { rp_period = Sim.Time.sec 60; rp_floor = 0.25 };
      Load.Arrival.Replay { rp_path = "logs/day.trace"; rp_scale = 0.5 };
      Load.Arrival.Replay { rp_path = "a@b.trace"; rp_scale = 1. } ];
  (* floor defaults, case-insensitive keywords *)
  check_bool "ramp floor default" true
    (Load.Arrival.parse "ramp:30"
    = Ok (Load.Arrival.Ramp { rp_period = Sim.Time.sec 30; rp_floor = 0.1 }));
  check_bool "keyword case" true
    (Load.Arrival.parse "RAMP:30"
    = Ok (Load.Arrival.Ramp { rp_period = Sim.Time.sec 30; rp_floor = 0.1 }));
  check_bool "garbage rejected" true
    (Result.is_error (Load.Arrival.parse "bursty"));
  check_bool "negative think rejected" true
    (Result.is_error (Load.Arrival.parse "closed=-5"));
  check_bool "zero ramp period rejected" true
    (Result.is_error (Load.Arrival.parse "ramp:0"));
  check_bool "bad ramp floor rejected" true
    (Result.is_error (Load.Arrival.parse "ramp:10/1.5"));
  check_bool "empty replay path rejected" true
    (Result.is_error (Load.Arrival.parse "replay:"))

(* QCheck: parse/to_string round-trips over every variant, including the
   replay:/ramp: forms.  Generated values stay within the canonical
   format's resolution (integer-microsecond times, hundredth floors and
   scales, '@'-free paths) so equality is exact. *)
let arrival_gen =
  let open QCheck.Gen in
  let path =
    let seg = string_size ~gen:(oneof [ char_range 'a' 'z'; char_range '0' '9' ]) (1 -- 8) in
    map (String.concat "/") (list_size (1 -- 3) seg)
  in
  oneof
    [
      return Load.Arrival.Uniform;
      return Load.Arrival.Poisson;
      map (fun us -> Load.Arrival.Closed (Sim.Time.us us)) (0 -- 1_000_000);
      map2
        (fun per_ms fl ->
          Load.Arrival.Ramp
            { rp_period = Sim.Time.ms per_ms;
              rp_floor = float_of_int fl /. 100. })
        (1 -- 3_600_000) (1 -- 100);
      map2
        (fun p s ->
          Load.Arrival.Replay
            { rp_path = p; rp_scale = float_of_int s /. 100. })
        path (1 -- 10_000);
    ]

let arrival_roundtrip_prop =
  QCheck.Test.make ~count:500 ~name:"arrival parse round-trip"
    (QCheck.make arrival_gen ~print:Load.Arrival.to_string)
    (fun a ->
      match Load.Arrival.parse (Load.Arrival.to_string a) with
      | Ok a' -> a = a'
      | Error e -> QCheck.Test.fail_report e)

(* ------------------------------------------------------------------ *)
(* Size mixes *)

let test_mix_single () =
  let m = Load.Mix.single 8192 in
  let rng = Sim.Rng.create ~seed:1 in
  let twin = Sim.Rng.create ~seed:1 in
  check_int "always the size" 8192 (Load.Mix.pick m rng);
  (* single-entry mixes must not consume randomness *)
  check_int "stream untouched" (Sim.Rng.int twin 1000) (Sim.Rng.int rng 1000);
  check_float "mean" 8192. (Load.Mix.mean_size m)

let test_mix_weighted () =
  let m = Load.Mix.of_list [ (64, 3); (8192, 1) ] in
  let rng = Sim.Rng.create ~seed:5 in
  let picks = List.init 4000 (fun _ -> Load.Mix.pick m rng) in
  check_bool "only mix sizes" true (List.for_all (fun s -> s = 64 || s = 8192) picks);
  let small = List.length (List.filter (( = ) 64) picks) in
  check_bool "~3:1 split" true (small > 2800 && small < 3200);
  check_float "mean" ((3. *. 64. +. 8192.) /. 4.) (Load.Mix.mean_size m)

let test_mix_parse () =
  (match Load.Mix.parse "64x9,8192" with
   | Ok m ->
     Alcotest.(check (list (pair int int))) "entries" [ (64, 9); (8192, 1) ]
       (Load.Mix.sizes m);
     check_bool "round-trip" true
       (Load.Mix.parse (Load.Mix.to_string m) = Ok m)
   | Error e -> Alcotest.fail e);
  check_bool "empty rejected" true (Result.is_error (Load.Mix.parse ""));
  check_bool "bad weight rejected" true (Result.is_error (Load.Mix.parse "64x0"));
  check_bool "of_list empty raises" true
    (match Load.Mix.of_list [] with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Knee/peak detection on synthetic curves *)

let synth offered achieved =
  {
    Load.Metrics.label = "synth";
    op = "rpc";
    offered;
    achieved;
    issued = 0;
    completed = 0;
    p50_ms = 0.;
    p95_ms = 0.;
    p99_ms = 0.;
    p999_ms = 0.;
    mean_ms = 0.;
    max_ms = 0.;
    client_util = 0.;
    server_util = 0.;
    server_thread_util = 0.;
    seq_util = 0.;
    ledger_cpu_ms = 0.;
    violations = 0;
    per_shard = [||];
  }

let test_knee_detection () =
  let c =
    Load.Sweep.curve
      [ synth 100. 100.; synth 400. 398.; synth 200. 200.; synth 800. 520. ]
  in
  (* points get ordered by offered load *)
  Alcotest.(check (list (float 1e-9))) "ordered"
    [ 100.; 200.; 400.; 800. ]
    (List.map (fun p -> p.Load.Metrics.offered) c.Load.Sweep.c_points);
  check_bool "knee" true (Load.Sweep.knee c = Load.Sweep.Knee 400.);
  check_float "peak" 520. (Load.Sweep.peak c);
  check_float "peak point" 800.
    (Load.Sweep.peak_point c).Load.Metrics.offered;
  let saturated_everywhere = Load.Sweep.curve [ synth 100. 50. ] in
  check_bool "no knee" true
    (Load.Sweep.knee saturated_everywhere = Load.Sweep.Saturated);
  (* A ramp that never saturates must report the sentinel, not its own
     last point. *)
  let unsaturated =
    Load.Sweep.curve [ synth 100. 100.; synth 200. 199.; synth 400. 400. ]
  in
  check_bool "unsaturated ramp has no knee" true
    (Load.Sweep.knee unsaturated = Load.Sweep.Unsaturated)

(* ------------------------------------------------------------------ *)
(* Sweep determinism: same seed => bit-identical tables, sequentially
   and on a 2-domain pool (the PR 2 reassembly contract). *)

let quick_config =
  {
    Load.Clients.default with
    Load.Clients.warmup = Sim.Time.ms 100;
    window = Sim.Time.ms 300;
  }

let quick_sweep ?pool () =
  Core.Experiments.load_sweep ~ctx:{ Core.Ctx.default with pool } ~nodes:4 ~config:quick_config
    ~rates:[ 400.; 1600. ]
    ~impls:[ Core.Cluster.Kernel; Core.Cluster.User ]
    ()

let points sweep =
  List.concat_map (fun (_, c) -> c.Load.Sweep.c_points) sweep

let show sweep =
  String.concat "\n"
    (List.map (fun p -> Format.asprintf "%a" Load.Metrics.pp p) (points sweep))

let test_sweep_deterministic () =
  let a = quick_sweep () and b = quick_sweep () in
  check_bool "bit-identical reruns" true (points a = points b);
  Alcotest.(check string) "printed tables identical" (show a) (show b)

let test_sweep_pool_deterministic () =
  let seq = quick_sweep () in
  let pooled = Exec.Pool.with_pool ~jobs:2 (fun p -> quick_sweep ~pool:p ()) in
  check_bool "sequential = -j 2" true (points seq = points pooled);
  Alcotest.(check string) "printed tables identical" (show seq) (show pooled)

(* ------------------------------------------------------------------ *)
(* Closed-form sanity: deterministic arrivals well below the knee must
   achieve the offered rate, with p50 latency at the unloaded Table 1
   null-RPC value (the golden test pins user null RPC at 1.555 ms). *)

let test_below_knee_sanity () =
  let sweep =
    Core.Experiments.load_sweep ~nodes:4
      ~config:{ quick_config with Load.Clients.window = Sim.Time.sec 1 }
      ~rates:[ 100. ]
      ~impls:[ Core.Cluster.User ]
      ()
  in
  match points sweep with
  | [ m ] ->
    check_float "offered is the configured rate" 100. m.Load.Metrics.offered;
    check_bool "achieved ~ offered" true
      (abs_float (m.Load.Metrics.achieved -. 100.) <= 2.);
    let unloaded = 1.555 (* golden Table 1, user null RPC, ms *) in
    check_bool
      (Printf.sprintf "p50 %.3f ms ~ unloaded %.3f ms" m.Load.Metrics.p50_ms unloaded)
      true
      (abs_float (m.Load.Metrics.p50_ms -. unloaded) <= 0.1 *. unloaded);
    check_bool "no violations field set" true (m.Load.Metrics.violations = 0);
    check_bool "server below saturation" true (m.Load.Metrics.server_util < 0.5)
  | _ -> Alcotest.fail "expected one point"

(* ------------------------------------------------------------------ *)
(* Saturation ordering at 8 KB: driven past the knee, peak throughput
   must order kernel >= optimized >= user, matching the golden Table 2
   (user-space overhead makes the user stack saturate lowest). *)

let test_saturation_ordering () =
  let sweep =
    Core.Experiments.load_sweep ~nodes:4
      ~config:
        {
          quick_config with
          Load.Clients.mix = Load.Mix.single 8192;
          window = Sim.Time.sec 2;
          warmup = Sim.Time.ms 200;
        }
      ~rates:[ 160. ]
      ()
  in
  let peak impl =
    match List.assoc_opt impl sweep with
    | Some c -> Load.Sweep.peak c
    | None -> Alcotest.fail "missing stack"
  in
  let k = peak Core.Cluster.Kernel
  and u = peak Core.Cluster.User
  and o = peak Core.Cluster.User_optimized in
  check_bool (Printf.sprintf "kernel %.1f >= optimized %.1f" k o) true (k >= o);
  check_bool (Printf.sprintf "optimized %.1f >= user %.1f" o u) true (o >= u);
  check_bool "all saturated (past the knee)" true
    (List.for_all (fun m -> Load.Metrics.saturated m) (points sweep))

(* ------------------------------------------------------------------ *)
(* Sequencer saturation: closed-loop group senders.  The user-space
   sequencer saturates first (pinned at 100% CPU with the lowest
   plateau); the kernel sequencer sustains the highest ordered rate. *)

let test_sequencer_saturation () =
  let rows =
    Core.Experiments.sequencer_saturation ~nodes:8 ~senders:[ 4 ]
      ~clients_per_node:2
      ~config:{ quick_config with Load.Clients.window = Sim.Time.ms 500 }
      ()
  in
  let point impl =
    match List.assoc_opt impl rows with
    | Some [ (_, m) ] -> m
    | _ -> Alcotest.fail "expected one point per stack"
  in
  let k = point Core.Cluster.Kernel
  and u = point Core.Cluster.User
  and o = point Core.Cluster.User_optimized in
  check_bool
    (Printf.sprintf "kernel %.0f > optimized %.0f msg/s" k.Load.Metrics.achieved
       o.Load.Metrics.achieved)
    true
    (k.Load.Metrics.achieved > o.Load.Metrics.achieved);
  check_bool
    (Printf.sprintf "optimized %.0f > user %.0f msg/s" o.Load.Metrics.achieved
       u.Load.Metrics.achieved)
    true
    (o.Load.Metrics.achieved > u.Load.Metrics.achieved);
  check_bool "user sequencer pinned at 100%" true (u.Load.Metrics.seq_util > 0.99);
  check_bool "optimized sequencer pinned at 100%" true (o.Load.Metrics.seq_util > 0.99);
  check_bool "kernel sequencer below saturation" true (k.Load.Metrics.seq_util < 0.95)

(* ------------------------------------------------------------------ *)
(* Composition with faults: a low-loss checked run must complete with
   zero conformance violations and still achieve the offered rate. *)

let test_checked_low_loss () =
  let sweep =
    Core.Experiments.load_sweep
      ~ctx:
        {
          Core.Ctx.default with
          faults = Some (Faults.Spec.loss ~seed:7 0.001);
          checked = true;
        }
      ~nodes:4 ~config:quick_config ~rates:[ 400. ]
      ~impls:[ Core.Cluster.User ]
      ()
  in
  match points sweep with
  | [ m ] ->
    check_int "no conformance violations" 0 m.Load.Metrics.violations;
    check_bool "achieved ~ offered under 0.1% loss" true
      (abs_float (m.Load.Metrics.achieved -. 400.) <= 20.)
  | _ -> Alcotest.fail "expected one point"

let () =
  Alcotest.run "load"
    [
      ( "arrival",
        [
          Alcotest.test_case "uniform" `Quick test_arrival_uniform;
          Alcotest.test_case "poisson" `Quick test_arrival_poisson;
          Alcotest.test_case "invalid rate" `Quick test_arrival_invalid_rate;
          Alcotest.test_case "ramp" `Quick test_arrival_ramp;
          Alcotest.test_case "parse round-trip" `Quick test_arrival_parse;
          QCheck_alcotest.to_alcotest arrival_roundtrip_prop;
        ] );
      ( "mix",
        [
          Alcotest.test_case "single" `Quick test_mix_single;
          Alcotest.test_case "weighted" `Quick test_mix_weighted;
          Alcotest.test_case "parse" `Quick test_mix_parse;
        ] );
      ("sweep", [ Alcotest.test_case "knee detection" `Quick test_knee_detection ]);
      ( "determinism",
        [
          Alcotest.test_case "rerun identical" `Quick test_sweep_deterministic;
          Alcotest.test_case "pool identical" `Quick test_sweep_pool_deterministic;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "below knee" `Quick test_below_knee_sanity;
          Alcotest.test_case "saturation ordering" `Quick test_saturation_ordering;
          Alcotest.test_case "sequencer saturation" `Quick test_sequencer_saturation;
          Alcotest.test_case "checked low loss" `Quick test_checked_low_loss;
        ] );
    ]
