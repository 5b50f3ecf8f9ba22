open Sim
open Machine
open Net
open Flip

(* Conformance tests for the sequencer capacity policies: batching,
   rotating token, sharded sequencers, crash failover.  Direct protocol
   tests here build raw Panda groups; the policy × fault matrix further
   down drives full checked load cells through Core.Experiments. *)

let machine_config =
  {
    Mach.ctx_warm = Time.us 60;
    ctx_cold_idle = Time.us 70;
    ctx_cold_preempt = Time.us 110;
    interrupt_entry = Time.us 10;
    syscall_base = Time.us 25;
    trap_cost = Time.us 6;
    lock_cost = Time.us 1;
    reg_windows = 6;
  }

type fixture = {
  eng : Engine.t;
  machines : Mach.t array;
  sys : Panda.System_layer.t array;
}

let pool n =
  let eng = Engine.create () in
  let machines =
    Array.init n (fun i ->
        Mach.create eng ~id:i ~name:(Printf.sprintf "m%d" i) machine_config)
  in
  let topo = Topology.build eng ~machines () in
  let flips =
    Array.mapi (fun i _ -> Flip_iface.create machines.(i) topo.Topology.nics.(i)) machines
  in
  let sys =
    Array.mapi
      (fun i flip -> Panda.System_layer.create ~name:(Printf.sprintf "pan%d" i) flip)
      flips
  in
  { eng; machines; sys }

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type Payload.t += KV of { key : int; value : int }

(* Build a group under [policy], run [sends] messages from every member
   (tagged with shard keys), and return per-member delivery logs. *)
let run_group ?(n = 4) ?(sends = 10) ?(crash_at = None) ~policy () =
  let fx = pool n in
  let grp, members =
    Panda.Group.create_static ~policy ~name:"g" ~sequencer:(Panda.Group.On_member 0)
      fx.sys
  in
  let logs = Array.map (fun _ -> ref []) members in
  Array.iteri
    (fun i m ->
      Panda.Group.set_handler m (fun ~sender ~size:_ payload ->
          match payload with
          | KV { key; value } -> logs.(i) := (sender, key, value) :: !(logs.(i))
          | _ -> Alcotest.fail "unexpected payload"))
    members;
  Array.iteri
    (fun i m ->
      ignore
        (Thread.spawn fx.machines.(i) (Printf.sprintf "sender%d" i) (fun () ->
             for v = 0 to sends - 1 do
               let key = (i * sends) + v in
               Panda.Group.send ~key m ~size:64 (KV { key; value = v });
               Thread.sleep (Time.ms 2)
             done)))
    members;
  (match crash_at with
   | None -> ()
   | Some at ->
     ignore (Engine.at fx.eng at (fun () -> Panda.Group.crash_sequencer grp)));
  Engine.run fx.eng;
  (grp, Array.map (fun l -> List.rev !l) logs)

let by_shard ~shards log =
  let per = Array.make shards [] in
  List.iter
    (fun (_, key, _ as d) ->
      let sh = Panda.Seq_policy.shard_of_key ~shards key in
      per.(sh) <- d :: per.(sh))
    log;
  Array.map List.rev per

let assert_complete_and_identical ~n ~sends ~shards logs =
  let total = n * sends in
  Array.iteri
    (fun i log ->
      check_int (Printf.sprintf "member %d delivered all" i) total (List.length log);
      let uniq = List.sort_uniq compare log in
      check_int (Printf.sprintf "member %d no duplicates" i) total (List.length uniq))
    logs;
  (* Identical delivery order at every member, per ordering shard. *)
  let ref_shards = by_shard ~shards logs.(0) in
  Array.iteri
    (fun i log ->
      let shl = by_shard ~shards log in
      for sh = 0 to shards - 1 do
        check_bool
          (Printf.sprintf "member %d shard %d order matches member 0" i sh)
          true
          (shl.(sh) = ref_shards.(sh))
      done)
    logs

(* ------------------------------------------------------------------ *)
(* Direct protocol tests *)

let test_batching_orders_all () =
  let n = 4 and sends = 12 in
  let grp, logs = run_group ~n ~sends ~policy:(Panda.Seq_policy.Batching 4) () in
  assert_complete_and_identical ~n ~sends ~shards:1 logs;
  check_int "every message ordered exactly once" (n * sends)
    (Panda.Group.messages_ordered grp)

let test_rotating_orders_all () =
  let n = 3 and sends = 12 in
  (* A short period forces several full token cycles within the run. *)
  let grp, logs = run_group ~n ~sends ~policy:(Panda.Seq_policy.Rotating 5) () in
  assert_complete_and_identical ~n ~sends ~shards:1 logs;
  check_int "every message ordered exactly once" (n * sends)
    (Panda.Group.messages_ordered grp)

let test_sharded_per_shard_order () =
  let n = 4 and sends = 12 in
  let shards = 3 in
  let grp, logs = run_group ~n ~sends ~policy:(Panda.Seq_policy.Sharded shards) () in
  check_int "shard count" shards (Panda.Group.shard_count grp);
  assert_complete_and_identical ~n ~sends ~shards logs;
  check_int "every message ordered exactly once" (n * sends)
    (Panda.Group.messages_ordered grp)

let test_failover_recovers () =
  let n = 4 and sends = 15 in
  let grp, logs =
    run_group ~n ~sends ~crash_at:(Some (Time.ms 8)) ~policy:Panda.Seq_policy.Failover
      ()
  in
  check_int "standby took over" 1 (Panda.Group.sequencer_epoch grp);
  (* Gap-free identical total order must survive the crash: every message
     delivered everywhere, exactly once, in one global order. *)
  assert_complete_and_identical ~n ~sends ~shards:1 logs

let test_sharded_failover_recovers () =
  let n = 4 and sends = 15 in
  let shards = 3 in
  let grp, logs =
    run_group ~n ~sends ~crash_at:(Some (Time.ms 8))
      ~policy:(Panda.Seq_policy.Sharded shards) ()
  in
  check_int "shard 0 standby took over" 1 (Panda.Group.sequencer_epoch grp);
  assert_complete_and_identical ~n ~sends ~shards logs

let direct =
  [
    Alcotest.test_case "batching delivers identical total order" `Quick
      test_batching_orders_all;
    Alcotest.test_case "rotating token delivers identical total order" `Quick
      test_rotating_orders_all;
    Alcotest.test_case "sharded delivers per-shard identical order" `Quick
      test_sharded_per_shard_order;
    Alcotest.test_case "failover recovers total order after crash" `Quick
      test_failover_recovers;
    Alcotest.test_case "sharded failover recovers shard 0 after crash" `Quick
      test_sharded_failover_recovers;
  ]

(* ------------------------------------------------------------------ *)
(* Checked policy × fault matrix: every non-baseline policy through a
   full load cell under the conformance checker, fault-free, at 1% frame
   loss, and with the sequencer crashed mid-window.  Zero violations
   certifies gap-free (per-shard) total order end to end — exactly the
   property `--checked` enforces in CI. *)

let matrix_policies =
  [
    Panda.Seq_policy.Batching 16;
    Panda.Seq_policy.Rotating 64;
    Panda.Seq_policy.Sharded 4;
    Panda.Seq_policy.Failover;
  ]

let quick_config =
  {
    Load.Clients.default with
    Load.Clients.warmup = Time.ms 100;
    window = Time.ms 300;
  }

let run_matrix ?faults () =
  Core.Experiments.sequencer_policy_sweep
    ~ctx:{ Core.Ctx.default with faults; checked = true }
    ~senders:[ 2 ]
    ~config:quick_config ~policies:matrix_policies ()

let assert_clean tag rows =
  List.iter
    (fun (policy, pts) ->
      List.iter
        (fun (s, m) ->
          let cell =
            Printf.sprintf "%s %s senders=%d" tag
              (Panda.Seq_policy.to_string policy)
              s
          in
          check_int (cell ^ ": zero violations") 0 m.Load.Metrics.violations;
          check_bool (cell ^ ": made progress") true
            (m.Load.Metrics.completed > 0))
        pts)
    rows

let test_matrix_fault_free () = assert_clean "fault-free" (run_matrix ())

let test_matrix_loss () =
  assert_clean "loss=1%" (run_matrix ~faults:(Faults.Spec.loss ~seed:7 0.01) ())

let test_matrix_seqcrash () =
  (* Crash lands inside the measurement window (warmup 100 ms + 300 ms
     window); recovery must rebuild a gap-free order with the checker
     watching. *)
  let faults =
    { Faults.Spec.none with Faults.Spec.seq_crash = Some (Time.ms 250) }
  in
  assert_clean "seqcrash" (run_matrix ~faults ())

let test_sweep_bit_identical_parallel () =
  (* The full policy sweep must be bit-identical sequential vs fanned out
     over a 2-domain pool — Metrics.t is all floats/ints/arrays, so
     structural equality is exact equality. *)
  let run ?pool () =
    Core.Experiments.sequencer_policy_sweep ~ctx:{ Core.Ctx.default with pool }
      ~senders:[ 1; 2 ]
      ~config:quick_config ()
  in
  let seq = run () in
  let par = Exec.Pool.with_pool ~jobs:2 (fun p -> run ~pool:p ()) in
  check_bool "policy sweep bit-identical at -j 2" true (seq = par)

let matrix =
  [
    Alcotest.test_case "all policies checked, fault-free" `Quick
      test_matrix_fault_free;
    Alcotest.test_case "all policies checked at 1% loss" `Quick
      test_matrix_loss;
    Alcotest.test_case "all policies checked across a sequencer crash"
      `Quick test_matrix_seqcrash;
    Alcotest.test_case "sweep bit-identical -j 1 vs -j 2" `Quick
      test_sweep_bit_identical_parallel;
  ]

(* ------------------------------------------------------------------ *)
(* QCheck model: any random interleaving of keyed sends through sharded
   sequencers yields, at every member, the same gap-free per-shard
   delivery sequence.  Each generated case fixes (members, shards, ops);
   the simulation itself is deterministic, so QCheck explores input
   space, not schedules. *)

let run_sharded_model ~n ~shards ops =
  let fx = pool n in
  let _grp, members =
    Panda.Group.create_static
      ~policy:(Panda.Seq_policy.Sharded shards)
      ~name:"g"
      ~sequencer:(Panda.Group.On_member 0)
      fx.sys
  in
  let logs = Array.map (fun _ -> ref []) members in
  Array.iteri
    (fun i m ->
      Panda.Group.set_handler m (fun ~sender ~size:_ payload ->
          match payload with
          | KV { key; value } -> logs.(i) := (sender, key, value) :: !(logs.(i))
          | _ -> ()))
    members;
  let per_member = Array.make n [] in
  List.iteri
    (fun idx (who, key, jitter) ->
      per_member.(who mod n) <- (idx, key, jitter) :: per_member.(who mod n))
    ops;
  Array.iteri
    (fun i m ->
      let mine = List.rev per_member.(i) in
      ignore
        (Thread.spawn fx.machines.(i) (Printf.sprintf "s%d" i) (fun () ->
             List.iter
               (fun (idx, key, jitter) ->
                 Panda.Group.send ~key m ~size:64 (KV { key; value = idx });
                 Thread.sleep (Time.us (50 + (jitter mod 4000))))
               mine)))
    members;
  Engine.run fx.eng;
  Array.map (fun l -> List.rev !l) logs

let prop_sharded_model =
  QCheck.Test.make ~count:25
    ~name:"sharded model: per-shard gap-free identical sequences"
    QCheck.(
      triple (int_range 2 5) (int_range 1 4)
        (list_of_size Gen.(int_range 1 40)
           (triple small_nat small_nat small_nat)))
    (fun (n, shards, ops) ->
      let logs = run_sharded_model ~n ~shards ops in
      let total = List.length ops in
      let ref_shards = by_shard ~shards logs.(0) in
      Array.for_all
        (fun log ->
          (* complete and duplicate-free: the value field is the op's
             globally unique index *)
          List.length log = total
          && List.length (List.sort_uniq compare log) = total
          && by_shard ~shards log = ref_shards)
        logs)

let model = [ QCheck_alcotest.to_alcotest prop_sharded_model ]

(* ------------------------------------------------------------------ *)
(* Golden pin: the default-policy (single-sequencer) saturation numbers,
   bit-exact.  The user stack's 725 msg/s wall is the baseline every
   policy in the capacity program is measured against; like the Table 1/2
   goldens, any drift means the cost model changed and the pin must be
   re-justified, not fuzzed past. *)

(* impl, senders, achieved msg/s, p50 ms, p99 ms, sequencer util. *)
let golden_saturation =
  [
    ("kernel", 1, 890., 2.2420800000000001, 2.2420800000000001,
     0.59820267999999999);
    ("kernel", 2, 1088., 3.6875, 3.6875, 0.70669324);
    ("kernel", 4, 1224., 6.625, 6.875, 0.78560043999999996);
    ("kernel", 7, 1232., 11.25, 11.75, 0.78133136000000003);
    ("user", 1, 724., 2.6875, 2.6875, 1.0001521200000001);
    ("user", 2, 725., 5.375, 5.625, 0.99992464000000003);
    ("user", 4, 725., 10.75, 13.75, 1.00001984);
    ("user", 7, 725., 19.5, 21.5, 1.00002324);
    ("optimized", 1, 858., 2.3125, 2.3125, 0.99987915999999999);
    ("optimized", 2, 839., 4.625, 5.875, 1.00007548);
    ("optimized", 4, 826., 9.75, 11.75, 1.00005476);
    ("optimized", 7, 824., 16.5, 18.5, 1.00020088);
  ]

let exact = Alcotest.(check (float 0.))

let test_golden_saturation () =
  let rows = Core.Experiments.sequencer_saturation () in
  let flat =
    List.concat_map
      (fun (impl, pts) ->
        List.map (fun (s, m) -> (Core.Cluster.impl_label impl, s, m)) pts)
      rows
  in
  check_int "grid shape" (List.length golden_saturation) (List.length flat);
  List.iter2
    (fun (gl, gs, ach, p50, p99, util) (l, s, m) ->
      let tag col = Printf.sprintf "saturation %s senders=%d %s" gl gs col in
      Alcotest.(check string) (tag "stack") gl l;
      check_int (tag "senders") gs s;
      exact (tag "achieved") ach m.Load.Metrics.achieved;
      exact (tag "p50") p50 m.Load.Metrics.p50_ms;
      exact (tag "p99") p99 m.Load.Metrics.p99_ms;
      exact (tag "seq_util") util m.Load.Metrics.seq_util)
    golden_saturation flat

let golden =
  [
    Alcotest.test_case "default-policy saturation pins bit-exactly" `Quick
      test_golden_saturation;
  ]

let () =
  Alcotest.run "sequencer"
    [
      ("direct", direct);
      ("checked matrix", matrix);
      ("sharded model", model);
      ("golden", golden);
    ]
