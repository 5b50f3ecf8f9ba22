(* Golden regression suite: pins the calibrated Table 1 latencies and
   Table 2 throughputs bit-exactly, so optimization work and future PRs
   cannot silently perturb the baselines the paper comparison rests on.
   The simulation is deterministic (and `-j N` fan-out is reassembled in
   canonical order), so exact float equality is the right check: any
   difference at all means the cost model changed and the pins must be
   re-justified, not fuzzed past.

   Also asserts, per stack, the ledger-conservation invariant (the cost
   ledger accounts for every nanosecond of CPU busy time) and the
   optimized stack's required ordering: strictly faster than baseline
   user space, never faster than kernel space in Table 1. *)

let check_bool = Alcotest.(check bool)
let exact = Alcotest.(check (float 0.))

(* size, unicast, multicast, rpc_user, rpc_kernel, grp_user, grp_kernel,
   rpc_opt, grp_opt — all ms. *)
let golden_table1 =
  [
    (0, 0.53156000000000003, 0.62156, 1.5550000000000002, 1.2729200000000001,
     1.57792, 1.3825400000000001, 1.3935200000000001, 1.4834400000000001);
    (1024, 1.5146000000000002, 1.6046, 2.5380400000000001, 2.2047599999999998,
     3.5439999999999996, 3.19502, 2.2741599999999997, 3.2959200000000002);
    (2048, 2.3864399999999999, 2.4764399999999998, 3.4066800000000002,
     3.1114000000000002, 4.0434399999999995, 3.2938200000000002,
     3.2043599999999999, 3.84632);
    (3072, 3.34504, 3.5250399999999997, 4.3140799999999997, 4.0180400000000001,
     5.2214799999999997, 4.2798600000000002, 4.1303600000000005,
     4.8943199999999996);
    (4096, 4.1713199999999997, 4.2613199999999996, 5.19156, 4.9498800000000003,
     5.8283199999999997, 5.1322999999999999, 4.9542000000000002,
     5.5961599999999994);
  ]

(* proto, user, kernel, optimized — KB/s. *)
let golden_table2 =
  [
    ("RPC", 918.27499471073611, 927.08842613908757, 943.84414279017847);
    ("group", 1058.5956100407031, 1018.6810346148359, 1064.4959654183583);
  ]

let row_key r =
  ( r.Core.Experiments.lr_size,
    r.Core.Experiments.lr_unicast,
    r.Core.Experiments.lr_multicast,
    r.Core.Experiments.lr_rpc_user,
    r.Core.Experiments.lr_rpc_kernel,
    r.Core.Experiments.lr_grp_user,
    r.Core.Experiments.lr_grp_kernel,
    r.Core.Experiments.lr_rpc_opt,
    r.Core.Experiments.lr_grp_opt )

let table1 = lazy (Core.Experiments.table1 ())
let table2 = lazy (Core.Experiments.table2 ())

let check_table1 rows =
  List.iter2
    (fun (size, u, m, ru, rk, gu, gk, ro, go) r ->
      let tag col = Printf.sprintf "T1 %d %s" size col in
      Alcotest.(check int) (tag "size") size r.Core.Experiments.lr_size;
      exact (tag "unicast") u r.Core.Experiments.lr_unicast;
      exact (tag "multicast") m r.Core.Experiments.lr_multicast;
      exact (tag "rpc user") ru r.Core.Experiments.lr_rpc_user;
      exact (tag "rpc kernel") rk r.Core.Experiments.lr_rpc_kernel;
      exact (tag "grp user") gu r.Core.Experiments.lr_grp_user;
      exact (tag "grp kernel") gk r.Core.Experiments.lr_grp_kernel;
      exact (tag "rpc optimized") ro r.Core.Experiments.lr_rpc_opt;
      exact (tag "grp optimized") go r.Core.Experiments.lr_grp_opt)
    golden_table1 rows

let check_table2 rows =
  List.iter2
    (fun (proto, u, k, o) r ->
      let tag col = Printf.sprintf "T2 %s %s" proto col in
      Alcotest.(check string) (tag "proto") proto r.Core.Experiments.tr_proto;
      exact (tag "user") u r.Core.Experiments.tr_user;
      exact (tag "kernel") k r.Core.Experiments.tr_kernel;
      exact (tag "optimized") o r.Core.Experiments.tr_opt)
    golden_table2 rows

let test_table1_golden () = check_table1 (Lazy.force table1)
let test_table2_golden () = check_table2 (Lazy.force table2)

(* Bit-identical under parallel fan-out: the same pins must hold when the
   cells run on a domain pool. *)
let test_golden_parallel () =
  let t1, t2 =
    Exec.Pool.with_pool ~jobs:2 (fun p ->
        let ctx = { Core.Ctx.default with pool = Some p } in
        (Core.Experiments.table1 ~ctx (), Core.Experiments.table2 ~ctx ()))
  in
  check_table1 t1;
  check_table2 t2;
  check_bool "-j 2 table1 identical to sequential" true
    (List.map row_key t1 = List.map row_key (Lazy.force table1))

(* The optimized stack's contract, as data rather than prose: strictly
   faster than the baseline user stack, never faster than the kernel stack
   (Table 1), and higher 8 KB throughput than the baseline (Table 2). *)
let test_optimized_ordering () =
  List.iter
    (fun r ->
      let tag s = Printf.sprintf "size %d: %s" r.Core.Experiments.lr_size s in
      check_bool (tag "rpc opt < rpc user") true
        (r.Core.Experiments.lr_rpc_opt < r.Core.Experiments.lr_rpc_user);
      check_bool (tag "rpc opt >= rpc kernel") true
        (r.Core.Experiments.lr_rpc_opt >= r.Core.Experiments.lr_rpc_kernel);
      check_bool (tag "grp opt < grp user") true
        (r.Core.Experiments.lr_grp_opt < r.Core.Experiments.lr_grp_user);
      check_bool (tag "grp opt >= grp kernel") true
        (r.Core.Experiments.lr_grp_opt >= r.Core.Experiments.lr_grp_kernel))
    (Lazy.force table1);
  List.iter
    (fun r ->
      check_bool
        (r.Core.Experiments.tr_proto ^ ": optimized throughput above baseline")
        true
        (r.Core.Experiments.tr_opt > r.Core.Experiments.tr_user))
    (Lazy.force table2)

(* The optimized differential must attribute every saved microsecond to
   one of the four named mechanisms: zero residual.  On the null RPC no
   removed work overlaps the wire, so the mechanisms' sum equals the
   latency delta exactly; on the group path a few microseconds of the
   removed CPU work were off the critical path, so the ledger recovery
   bounds the latency delta from above. *)
let test_optimized_attribution () =
  let rpc_o, grp_o = Core.Experiments.optimized_breakdown () in
  let close a b = Float.abs (a -. b) < 1e-9 in
  let sum o =
    List.fold_left (fun acc (_, us) -> acc +. us) 0.
      o.Core.Experiments.ob_mechanisms
  in
  check_bool "rpc residual zero" true
    (close rpc_o.Core.Experiments.ob_residual_us 0.);
  check_bool "group residual zero" true
    (close grp_o.Core.Experiments.ob_residual_us 0.);
  check_bool "rpc mechanisms sum to the latency delta" true
    (close (sum rpc_o)
       (rpc_o.Core.Experiments.ob_base_us -. rpc_o.Core.Experiments.ob_opt_us));
  check_bool "group mechanisms cover the latency delta" true
    (sum grp_o
     >= grp_o.Core.Experiments.ob_base_us -. grp_o.Core.Experiments.ob_opt_us
        -. 1e-9);
  List.iter
    (fun o ->
      List.iter
        (fun (name, us) ->
          check_bool (name ^ ": a mechanism never costs time") true (us >= 0.))
        o.Core.Experiments.ob_mechanisms)
    [ rpc_o; grp_o ]

(* Ledger conservation, per stack: the cost ledger attributes every
   nanosecond of CPU busy time to exactly one (layer, cause) cell.  The
   single exception is the header share of NIC reception, charged as
   non-CPU [Header_wire] and tracked by a correction counter. *)
let test_ledger_conservation () =
  List.iter
    (fun (label, impl) ->
      let r, busy = Core.Experiments.recorded_rpc ~impl () in
      let correction = Sim.Stats.counter (Obs.Recorder.stats r) "obs.nic.header_rx_ns" in
      check_bool (label ^ ": simulation did work") true (busy > 0);
      Alcotest.(check int)
        (label ^ ": ledger CPU total equals CPU busy time")
        busy
        (Obs.Recorder.cpu_ns r + correction))
    [ ("user", `User); ("kernel", `Kernel); ("optimized", `Opt) ]

let () =
  Alcotest.run "golden"
    [
      ( "tables",
        [
          Alcotest.test_case "table1 pinned" `Slow test_table1_golden;
          Alcotest.test_case "table2 pinned" `Slow test_table2_golden;
          Alcotest.test_case "pins hold at -j 2" `Slow test_golden_parallel;
          Alcotest.test_case "optimized ordering" `Slow test_optimized_ordering;
          Alcotest.test_case "optimized attribution" `Slow
            test_optimized_attribution;
        ] );
      ( "ledger",
        [ Alcotest.test_case "conservation per stack" `Quick test_ledger_conservation ] );
    ]
