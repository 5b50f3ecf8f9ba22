(* Tests for the one-sided (RDMA-style) fourth stack: network-era profile
   parsing, remote read/write/cas semantics, the zero-server-thread-CPU
   property and its ledger attribution, at-most-once CAS under fault
   schedules, DHT coherence over both transports, and a reduced golden
   crossover pinned bit-exactly (including -j 2 pool fan-out). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 0.))
let check_array = Alcotest.(check (array int))

(* ------------------------------------------------------------------ *)
(* Network-era profiles *)

let test_profile_roundtrip () =
  List.iter
    (fun p ->
      match Core.Params.net_profile_of_string p.Core.Params.np_name with
      | Some p' ->
        check_bool (p.Core.Params.np_name ^ " round-trips") true (p' == p)
      | None -> Alcotest.fail ("profile not found: " ^ p.Core.Params.np_name))
    Core.Params.net_profiles;
  check_bool "unknown profile rejected" true
    (Core.Params.net_profile_of_string "net56k" = None);
  check_int "four eras" 4 (List.length Core.Params.net_profiles)

(* The default era must be the paper's exact constants: every golden
   result in the suite depends on net10m being bit-identical to the
   pre-profile parameters. *)
let test_profile_net10m_is_paper () =
  let p = Core.Params.net10m in
  check_bool "segment" true (p.Core.Params.np_segment = Core.Params.segment);
  check_bool "nic" true (p.Core.Params.np_nic = Core.Params.nic);
  check_int "switch" Core.Params.switch_latency p.Core.Params.np_switch

let test_profile_eras_get_faster () =
  let byte p = p.Core.Params.np_segment.Net.Segment.byte_time in
  let rec strictly_faster = function
    | a :: (b :: _ as rest) -> byte a > byte b && strictly_faster rest
    | _ -> true
  in
  check_bool "byte time strictly falls across eras" true
    (strictly_faster Core.Params.net_profiles)

(* ------------------------------------------------------------------ *)
(* One-sided semantics *)

(* A 2-machine cluster with a region on rank 0 and a client thread on
   rank 1; returns whatever the client computed once the engine drains. *)
let run_client ?faults ?(net = Core.Params.net10m) ~words body =
  let cluster = Core.Cluster.create ~net ~n:2 () in
  (match faults with
   | Some spec ->
     ignore
       (Faults.Inject.install cluster.Core.Cluster.eng cluster.Core.Cluster.topo
          spec)
   | None -> ());
  let rnics = Core.Cluster.rnics cluster in
  let region = Onesided.Region.create ~key:7 ~name:"mem" ~words in
  Onesided.Rnic.register_region rnics.(0) region;
  let dst = Onesided.Rnic.addr rnics.(0) in
  let result = ref None in
  ignore
    (Machine.Thread.spawn cluster.Core.Cluster.machines.(1) "client" (fun () ->
         result := Some (body cluster rnics.(1) dst)));
  Sim.Engine.run cluster.Core.Cluster.eng;
  match !result with
  | Some r -> (r, cluster, rnics, region)
  | None -> Alcotest.fail "client never completed"

let test_read_write () =
  let (), _, _, region =
    run_client ~words:64 (fun _ r dst ->
        Onesided.Rnic.write r ~dst ~rkey:7 ~off:10 [| 1; 2; 3 |];
        let back = Onesided.Rnic.read r ~dst ~rkey:7 ~off:10 ~words:3 in
        check_array "write then read" [| 1; 2; 3 |] back;
        let zeros = Onesided.Rnic.read r ~dst ~rkey:7 ~off:0 ~words:4 in
        check_array "untouched words read 0" [| 0; 0; 0; 0 |] zeros)
  in
  check_int "region holds the words" 2 region.Onesided.Region.data.(11)

let test_cas () =
  let (), _, _, region =
    run_client ~words:8 (fun _ r dst ->
        let old = Onesided.Rnic.cas r ~dst ~rkey:7 ~off:0 ~expected:0 ~desired:5 in
        check_int "first cas wins, returns old" 0 old;
        let old = Onesided.Rnic.cas r ~dst ~rkey:7 ~off:0 ~expected:0 ~desired:9 in
        check_int "stale cas fails, returns current" 5 old)
  in
  check_int "only the winning cas applied" 5 region.Onesided.Region.data.(0)

let test_bad_rkey_fails () =
  let cluster = Core.Cluster.create ~n:2 () in
  let rnics = Core.Cluster.rnics cluster in
  let ok =
    match Onesided.Rnic.region rnics.(0) ~key:99 with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "unknown rkey is rejected" true ok

(* The tentpole property: the target executes every op in interrupt
   context, so its thread-context CPU is exactly zero while its total CPU
   is not. *)
let test_zero_server_thread_cpu () =
  let (), cluster, _, _ =
    run_client ~words:128 (fun _ r dst ->
        for i = 0 to 49 do
          Onesided.Rnic.write r ~dst ~rkey:7 ~off:(i mod 64) [| i |];
          ignore (Onesided.Rnic.read r ~dst ~rkey:7 ~off:(i mod 64) ~words:8)
        done)
  in
  let cpu i = Machine.Mach.cpu cluster.Core.Cluster.machines.(i) in
  let busy i = Machine.Cpu.busy_time (cpu i) in
  let intr i = Machine.Cpu.busy_interrupt_time (cpu i) in
  check_bool "target CPU did work" true (busy 0 > 0);
  check_int "target thread-context CPU is zero" 0 (busy 0 - intr 0);
  check_bool "initiator ran in thread context" true (busy 1 - intr 1 > 0)

(* Every target-side nanosecond lands in the Onesided layer under
   Uk_crossing (interrupt entry) or Offload (op execution), and the whole
   ledger still balances against machine busy time. *)
let test_ledger_attribution () =
  let cluster = Core.Cluster.create ~n:2 () in
  let rnics = Core.Cluster.rnics cluster in
  let region = Onesided.Region.create ~key:7 ~name:"mem" ~words:64 in
  Onesided.Rnic.register_region rnics.(0) region;
  let dst = Onesided.Rnic.addr rnics.(0) in
  let r = Obs.Recorder.create () in
  Obs.Recorder.install r;
  ignore
    (Machine.Thread.spawn cluster.Core.Cluster.machines.(1) "client" (fun () ->
         for _ = 1 to 20 do
           Onesided.Rnic.write rnics.(1) ~dst ~rkey:7 ~off:0 [| 1; 2; 3; 4 |];
           ignore (Onesided.Rnic.read rnics.(1) ~dst ~rkey:7 ~off:0 ~words:4)
         done));
  Sim.Engine.run cluster.Core.Cluster.eng;
  Obs.Recorder.uninstall ();
  let cell cause = Obs.Recorder.ledger_ns r ~layer:Obs.Layer.Onesided ~cause in
  check_bool "Offload cell populated" true (cell Obs.Cause.Offload > 0);
  check_bool "interrupt-entry cell populated" true
    (cell Obs.Cause.Uk_crossing > 0);
  check_bool "initiator posting charged" true (cell Obs.Cause.Proto_proc > 0);
  (* Nothing leaks into the RPC stacks' layers. *)
  List.iter
    (fun layer ->
      check_int
        ("no CPU in layer " ^ Obs.Layer.to_string layer)
        0
        (List.fold_left
           (fun acc c ->
             if Obs.Cause.is_cpu c then
               acc + Obs.Recorder.ledger_ns r ~layer ~cause:c
             else acc)
           0 Obs.Cause.all))
    [
      Obs.Layer.Flip; Obs.Layer.Amoeba_rpc; Obs.Layer.Amoeba_grp;
      Obs.Layer.Panda_sys; Obs.Layer.Panda_rpc; Obs.Layer.Panda_grp;
      Obs.Layer.Orca;
    ];
  (* Conservation: ledger CPU + the NIC header-reception correction equals
     the machines' busy time. *)
  let busy =
    Array.fold_left
      (fun acc m -> acc + Machine.Cpu.busy_time (Machine.Mach.cpu m))
      0 cluster.Core.Cluster.machines
  in
  let correction =
    Sim.Stats.counter (Obs.Recorder.stats r) "obs.nic.header_rx_ns"
  in
  check_int "ledger balances against busy time" busy
    (Obs.Recorder.cpu_ns r + correction)

(* ------------------------------------------------------------------ *)
(* Fault schedules: the one-sided protocol under loss/dup/corrupt *)

let os_fault_run spec =
  let checker = Faults.Invariants.create () in
  let cluster = Core.Cluster.create ~n:3 () in
  ignore
    (Faults.Inject.install cluster.Core.Cluster.eng cluster.Core.Cluster.topo
       spec);
  let rnics = Core.Cluster.rnics cluster in
  Faults.Invariants.attach_rnics checker rnics;
  let region = Onesided.Region.create ~key:7 ~name:"mem" ~words:64 in
  Onesided.Rnic.register_region rnics.(0) region;
  let dst = Onesided.Rnic.addr rnics.(0) in
  (* Two clients racing cas-claims on the same word plus reads/writes on
     disjoint words: exercises retransmission, duplicate suppression and
     the at-most-once cas cache at once. *)
  for rank = 1 to 2 do
    ignore
      (Machine.Thread.spawn cluster.Core.Cluster.machines.(rank)
         (Printf.sprintf "c%d" rank)
         (fun () ->
           for i = 1 to 60 do
             let r = rnics.(rank) in
             let v =
               Onesided.Rnic.cas r ~dst ~rkey:7 ~off:0 ~expected:(i - 1)
                 ~desired:i
             in
             ignore v;
             Onesided.Rnic.write r ~dst ~rkey:7 ~off:(8 * rank) [| i; i + 1 |];
             ignore
               (Onesided.Rnic.read r ~dst ~rkey:7 ~off:(8 * rank) ~words:2)
           done))
  done;
  Sim.Engine.run cluster.Core.Cluster.eng;
  Faults.Invariants.finalize checker;
  (checker, rnics)

let test_faults_loss () =
  let checker, rnics = os_fault_run (Faults.Spec.loss ~seed:11 0.03) in
  check_int "no invariant violations under loss" 0
    (Faults.Invariants.n_violations checker);
  check_bool "ops were checked" true
    (Faults.Invariants.onesided_checked checker > 0);
  let retrans =
    Array.fold_left (fun acc r -> acc + Onesided.Rnic.retransmissions r) 0 rnics
  in
  check_bool "losses forced retransmissions" true (retrans > 0)

let test_faults_dup_corrupt () =
  let spec = { (Faults.Spec.loss ~seed:13 0.01) with Faults.Spec.dup = 0.05; corrupt = 0.02 } in
  let checker, rnics = os_fault_run spec in
  check_int "no violations under dup+corrupt+loss" 0
    (Faults.Invariants.n_violations checker);
  (* Duplicated or retransmitted cas requests must be answered from the
     replay cache, never re-executed. *)
  let replays =
    Array.fold_left (fun acc r -> acc + Onesided.Rnic.cas_replays r) 0 rnics
  in
  check_bool "duplicate cas requests replayed, not re-executed" true
    (replays > 0)

(* ------------------------------------------------------------------ *)
(* DHT coherence over both transports *)

let dht_run ?faults ~onesided () =
  let cluster = Core.Cluster.create ~n:3 () in
  (match faults with
   | Some spec ->
     ignore
       (Faults.Inject.install cluster.Core.Cluster.eng cluster.Core.Cluster.topo
          spec)
   | None -> ());
  let params =
    { Apps.Dht.default_params with Apps.Dht.dh_keys = 64; dh_value_words = 8 }
  in
  let dht =
    if onesided then
      Apps.Dht.create_onesided ~params
        ~rnics:(Core.Cluster.rnics cluster)
        ~server:0 ()
    else
      Apps.Dht.create_rpc ~params
        ~backends:(Core.Cluster.backends cluster Core.Cluster.User)
        ~server:0 ()
  in
  let root = Sim.Rng.create ~seed:3 in
  for rank = 1 to 2 do
    let rng = Sim.Rng.split root in
    ignore
      (Machine.Thread.spawn cluster.Core.Cluster.machines.(rank) "dht-client"
         (fun () ->
           for _ = 1 to 150 do
             Apps.Dht.client_op dht ~rank rng
           done))
  done;
  Sim.Engine.run cluster.Core.Cluster.eng;
  dht

let check_dht dht =
  check_int "300 ops ran" 300 (Apps.Dht.ops dht);
  check_bool "mix has both ops" true
    (Apps.Dht.gets dht > 0 && Apps.Dht.puts dht > 0);
  check_int "no torn blocks observed" 0 (Apps.Dht.violations dht);
  check_int "store coherent at rest" 0 (Apps.Dht.check_at_rest dht)

let test_dht_rpc () = check_dht (dht_run ~onesided:false ())
let test_dht_onesided () = check_dht (dht_run ~onesided:true ())

let test_dht_onesided_faults () =
  check_dht (dht_run ~faults:(Faults.Spec.loss ~seed:5 0.02) ~onesided:true ())

(* Same seed, same draw sequence: both transports see the same get/put mix
   on the same keys. *)
let test_dht_same_mix () =
  let a = dht_run ~onesided:false () and b = dht_run ~onesided:true () in
  check_int "same gets" (Apps.Dht.gets a) (Apps.Dht.gets b);
  check_int "same puts" (Apps.Dht.puts a) (Apps.Dht.puts b)

(* ------------------------------------------------------------------ *)
(* Golden crossover (reduced): pinned capacities, the winner flip, the
   zero-thread-CPU evidence, zero residual, and -j 2 bit-identity. *)

let golden_config =
  {
    Load.Clients.default with
    Load.Clients.clients_per_node = 2;
    warmup = Sim.Time.ms 100;
    window = Sim.Time.ms 300;
  }

let golden_nets = [ Core.Params.net10m; Core.Params.net1g ]

let crossover =
  lazy
    (Core.Experiments.onesided_crossover ~nets:golden_nets ~read_pcts:[ 90 ]
       ~nodes:4 ~config:golden_config ())

(* (net, stack, capacity op/s, latency-probe p50 ms) pinned from the
   deterministic run; any drift in the default-era constants or the
   one-sided protocol shows up here first. *)
let golden_cells =
  [
    ("net10m", "kernel", 713.3, 1.781);
    ("net10m", "user", 1456.7, 2.161);
    ("net10m", "optimized", 1470.0, 1.930);
    ("net10m", "onesided", 1276.7, 1.469);
    ("net1g", "kernel", 1020.0, 0.922);
    ("net1g", "user", 2180.0, 1.248);
    ("net1g", "optimized", 2463.3, 1.039);
    ("net1g", "onesided", 8540.0, 0.290);
  ]

let test_golden_crossover () =
  let cells = Lazy.force crossover in
  check_int "cell count" (List.length golden_cells) (List.length cells);
  List.iter2
    (fun (net, stack, cap, p50) c ->
      let id = Printf.sprintf "%s/%s" net stack in
      Alcotest.(check string) (id ^ " net") net c.Core.Experiments.xc_net;
      Alcotest.(check string)
        (id ^ " stack") stack
        (Core.Cluster.stack_label c.Core.Experiments.xc_stack);
      check_float (id ^ " capacity")
        cap
        (Float.round (c.Core.Experiments.xc_capacity.Load.Metrics.achieved *. 10.)
        /. 10.);
      check_float (id ^ " p50")
        p50
        (Float.round (c.Core.Experiments.xc_latency.Load.Metrics.p50_ms *. 1000.)
        /. 1000.))
    golden_cells cells

let test_crossover_flips () =
  match Core.Experiments.crossover_summary (Lazy.force crossover) with
  | [ slow; fast ] ->
    check_bool "paper's era: rpc holds" false slow.Core.Experiments.xs_os_wins;
    check_bool "gigabit era: one-sided wins" true
      fast.Core.Experiments.xs_os_wins;
    check_bool "the flip is on capacity" true
      (fast.Core.Experiments.xs_os_capacity
       > 2. *. fast.Core.Experiments.xs_rpc_capacity);
    check_bool "mechanism names the server CPU" true
      (String.length fast.Core.Experiments.xs_mechanism > 0)
  | rows -> Alcotest.fail (Printf.sprintf "expected 2 rows, got %d" (List.length rows))

(* The acceptance property proper: on every era, the one-sided cells burn
   exactly zero server-thread CPU and put exactly zero CPU in the RPC
   stacks' layers, with nothing unattributed anywhere. *)
let test_crossover_attribution () =
  List.iter
    (fun c ->
      let id =
        Printf.sprintf "%s/%s" c.Core.Experiments.xc_net
          (Core.Cluster.stack_label c.Core.Experiments.xc_stack)
      in
      check_float (id ^ " residual") 0.
        c.Core.Experiments.xc_ledger.Core.Experiments.ol_residual_ms;
      check_int (id ^ " coherent") 0 c.Core.Experiments.xc_dht_violations;
      if c.Core.Experiments.xc_stack = Core.Cluster.One_sided then begin
        check_float (id ^ " zero server-thread CPU") 0.
          c.Core.Experiments.xc_capacity.Load.Metrics.server_thread_util;
        check_float (id ^ " zero stack-layer CPU") 0.
          c.Core.Experiments.xc_ledger.Core.Experiments.ol_stack_ms;
        check_bool (id ^ " target CPU attributed") true
          (c.Core.Experiments.xc_ledger.Core.Experiments.ol_target_ms > 0.)
      end
      else
        check_bool (id ^ " rpc server runs threads") true
          (c.Core.Experiments.xc_capacity.Load.Metrics.server_thread_util > 0.))
    (Lazy.force crossover)

let test_crossover_pool_identical () =
  let seq = Lazy.force crossover in
  let pooled =
    Exec.Pool.with_pool ~jobs:2 (fun p ->
        Core.Experiments.onesided_crossover
          ~ctx:{ Core.Ctx.default with pool = Some p }
          ~nets:golden_nets
          ~read_pcts:[ 90 ] ~nodes:4 ~config:golden_config ())
  in
  check_bool "-j 2 bit-identical" true (compare seq pooled = 0)

let () =
  Alcotest.run "onesided"
    [
      ( "profiles",
        [
          Alcotest.test_case "round-trip" `Quick test_profile_roundtrip;
          Alcotest.test_case "net10m is the paper" `Quick
            test_profile_net10m_is_paper;
          Alcotest.test_case "eras get faster" `Quick test_profile_eras_get_faster;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "read/write" `Quick test_read_write;
          Alcotest.test_case "cas" `Quick test_cas;
          Alcotest.test_case "bad rkey" `Quick test_bad_rkey_fails;
          Alcotest.test_case "zero server-thread CPU" `Quick
            test_zero_server_thread_cpu;
          Alcotest.test_case "ledger attribution" `Quick test_ledger_attribution;
        ] );
      ( "faults",
        [
          Alcotest.test_case "loss" `Quick test_faults_loss;
          Alcotest.test_case "dup+corrupt" `Quick test_faults_dup_corrupt;
        ] );
      ( "dht",
        [
          Alcotest.test_case "rpc coherent" `Quick test_dht_rpc;
          Alcotest.test_case "one-sided coherent" `Quick test_dht_onesided;
          Alcotest.test_case "one-sided under loss" `Quick
            test_dht_onesided_faults;
          Alcotest.test_case "same mix both transports" `Quick test_dht_same_mix;
        ] );
      ( "crossover",
        [
          Alcotest.test_case "golden cells" `Quick test_golden_crossover;
          Alcotest.test_case "winner flips at 1G" `Quick test_crossover_flips;
          Alcotest.test_case "attribution" `Quick test_crossover_attribution;
          Alcotest.test_case "pool bit-identity" `Quick
            test_crossover_pool_identical;
        ] );
    ]
