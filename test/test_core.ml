(* Experiment-level tests: the microbenchmark harnesses must reproduce the
   paper's qualitative orderings on every run. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_table1_row_orderings () =
  (* One row is enough for the orderings; the full sweep runs in bench. *)
  let size = 0 in
  let uni = Core.Experiments.unicast_latency ~size () in
  let mc = Core.Experiments.multicast_latency ~size () in
  let rpc_u = Core.Experiments.rpc_latency ~impl:`User ~size () in
  let rpc_k = Core.Experiments.rpc_latency ~impl:`Kernel ~size () in
  let grp_u = Core.Experiments.group_latency ~impl:`User ~size () in
  let grp_k = Core.Experiments.group_latency ~impl:`Kernel ~size () in
  check_bool "multicast >= unicast" true (mc >= uni);
  check_bool "user RPC slower than kernel RPC" true (rpc_u > rpc_k);
  check_bool "user group slower than kernel group" true (grp_u > grp_k);
  check_bool "rpc slower than raw unicast" true (rpc_u > uni && rpc_k > uni);
  (* The gaps are fractions of a millisecond, as in the paper. *)
  check_bool "rpc gap sane" true (rpc_u -. rpc_k < 1.0);
  check_bool "group gap sane" true (grp_u -. grp_k < 1.0)

let test_latency_monotone_in_size () =
  let lat size = Core.Experiments.rpc_latency ~impl:`User ~size () in
  let l0 = lat 0 and l2 = lat 2048 and l4 = lat 4096 in
  check_bool "grows with size" true (l0 < l2 && l2 < l4);
  (* Slope must be at least the wire time (0.8 us/B both ways). *)
  check_bool "slope at least wire rate" true (l4 -. l0 > 4096. *. 0.0008)

let test_throughput_orderings () =
  let rows = Core.Experiments.table2 () in
  let rpc = List.find (fun r -> r.Core.Experiments.tr_proto = "RPC") rows in
  let grp = List.find (fun r -> r.Core.Experiments.tr_proto = "group") rows in
  check_bool "kernel RPC throughput higher" true
    (rpc.Core.Experiments.tr_kernel > rpc.Core.Experiments.tr_user);
  (* Group throughput saturates the wire: both implementations close. *)
  let ratio = grp.Core.Experiments.tr_user /. grp.Core.Experiments.tr_kernel in
  check_bool "group throughputs comparable" true (ratio > 0.85 && ratio < 1.15);
  check_bool "all below wire rate" true
    (List.for_all
       (fun r ->
         r.Core.Experiments.tr_user < 1250. && r.Core.Experiments.tr_kernel < 1250.)
       rows)

let test_rpc_breakdown_accounts_for_gap () =
  let rows = Core.Experiments.rpc_breakdown () in
  let total = List.assoc "total user-kernel gap" rows in
  let ctx = List.assoc "context switches" rows in
  let frag = List.assoc "double fragmentation" rows in
  check_bool "positive gap" true (total > 0.);
  check_bool "context switches ~140us (2 switches)" true (ctx > 100. && ctx < 180.);
  check_bool "fragmentation ~40us (2 messages)" true (frag > 20. && frag < 60.)

let test_cluster_shapes () =
  let c = Core.Cluster.create ~n:32 () in
  check_int "machines" 32 (Array.length c.Core.Cluster.machines);
  check_int "four segments of eight" 4 (Array.length c.Core.Cluster.topo.Net.Topology.segments);
  check_bool "switch present" true (c.Core.Cluster.topo.Net.Topology.switch <> None);
  let small = Core.Cluster.create ~n:8 () in
  check_bool "no switch for one segment" true
    (small.Core.Cluster.topo.Net.Topology.switch = None)

(* Daemon threads never exit, so nothing process-wide may hold on to a
   thread: once its handles are dropped, a finished simulation is garbage. *)
let test_finished_simulation_collectable () =
  let run () =
    let c = Core.Cluster.create ~lanes:false ~n:2 () in
    let dom = Core.Cluster.domain c Core.Cluster.User in
    let obj =
      Orca.Rts.declare dom ~name:"leak" ~placement:(Orca.Rts.Owned 1) ~init:(fun ~rank:_ -> 0)
    in
    let get = Orca.Rts.defop obj ~name:"get" ~kind:`Read (fun _ _ -> Sim.Payload.Empty) in
    ignore
      (Orca.Rts.spawn dom ~rank:0 "invoker" (fun ~rank:_ ->
           ignore (Orca.Rts.invoke get Sim.Payload.Empty)));
    Sim.Engine.run c.Core.Cluster.eng;
    let w = Weak.create 1 in
    Weak.set w 0 (Some c.Core.Cluster.eng);
    w
  in
  let w = run () in
  Gc.full_major ();
  check_bool "engine collected" false (Weak.check w 0)

let test_runner_validates_checksum () =
  let o =
    Core.Runner.run ~impl:Core.Cluster.User ~procs:2
      {
        Core.Runner.app_name = "mini";
        app_make = (fun dom -> Apps.Tsp.make dom Apps.Tsp.test_params);
        app_reference = lazy (Apps.Tsp.sequential Apps.Tsp.test_params);
      }
  in
  check_bool "valid" true o.Core.Runner.o_valid;
  check_bool "took time" true (o.Core.Runner.o_seconds > 0.)

let test_dedicated_sequencer_worker_count () =
  (* User_dedicated sacrifices a worker: P=4 means 3 workers + sequencer. *)
  let app =
    {
      Core.Runner.app_name = "mini";
      app_make = (fun dom -> Apps.Leq.make dom Apps.Leq.test_params);
      app_reference = lazy (Apps.Leq.sequential Apps.Leq.test_params);
    }
  in
  let o = Core.Runner.run ~impl:Core.Cluster.User_dedicated ~procs:4 app in
  check_bool "valid result with P-1 workers" true o.Core.Runner.o_valid

let test_nonblocking_ablation () =
  let rows = Core.Experiments.ablation_nonblocking () in
  let blocking = List.assoc "blocking send (ms)" rows in
  let nonblocking = List.assoc "nonblocking send (ms)" rows in
  check_bool "nonblocking send much cheaper for the sender" true
    (nonblocking < blocking /. 2.)

let () =
  Alcotest.run "core"
    [
      ( "experiments",
        [
          Alcotest.test_case "table1 orderings" `Quick test_table1_row_orderings;
          Alcotest.test_case "latency monotone" `Quick test_latency_monotone_in_size;
          Alcotest.test_case "throughput orderings" `Quick test_throughput_orderings;
          Alcotest.test_case "rpc breakdown" `Quick test_rpc_breakdown_accounts_for_gap;
          Alcotest.test_case "nonblocking ablation" `Quick test_nonblocking_ablation;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "shapes" `Quick test_cluster_shapes;
          Alcotest.test_case "runner validates" `Quick test_runner_validates_checksum;
          Alcotest.test_case "dedicated workers" `Quick test_dedicated_sequencer_worker_count;
          Alcotest.test_case "finished simulation collectable" `Quick
            test_finished_simulation_collectable;
        ] );
    ]
