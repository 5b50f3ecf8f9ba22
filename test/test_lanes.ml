(* Tests for the conservative laned engine: lane plans, the windowed
   run loop with deterministic cross-lane merge, and full laned cluster
   runs (reproducibility, -j fan-out bit-identity, and the 1-lane
   collapse to the sequential path). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Lane plans *)

let test_plan_two_segments () =
  match Sim.Lanes.plan ~n_machines:12 ~per_segment:8 ~switch_latency:100 with
  | None -> Alcotest.fail "12 machines on 8-per-segment must shard"
  | Some p ->
    check_int "lanes: 2 segments + switch" 3 p.Sim.Lanes.n_lanes;
    check_int "switch lane is last" 2 p.Sim.Lanes.switch_lane;
    check_int "ingress" 50 p.Sim.Lanes.ingress;
    check_int "egress" 50 p.Sim.Lanes.egress;
    check_int "lookahead = min hop" 50 p.Sim.Lanes.lookahead;
    Alcotest.(check (array int))
      "machine lanes" [| 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 1 |]
      p.Sim.Lanes.machine_lane;
    Alcotest.(check (array int)) "segment lanes" [| 0; 1 |] p.Sim.Lanes.segment_lane

let test_plan_odd_latency () =
  match Sim.Lanes.plan ~n_machines:20 ~per_segment:8 ~switch_latency:101 with
  | None -> Alcotest.fail "20 machines must shard"
  | Some p ->
    check_int "lanes" 4 p.Sim.Lanes.n_lanes;
    check_int "ingress + egress = switch latency" 101
      (p.Sim.Lanes.ingress + p.Sim.Lanes.egress);
    check_int "lookahead is the smaller hop" 50 p.Sim.Lanes.lookahead

let test_plan_collapses () =
  check_bool "single segment: no plan" true
    (Sim.Lanes.plan ~n_machines:8 ~per_segment:8 ~switch_latency:100 = None);
  check_bool "zero-latency switch: no plan" true
    (Sim.Lanes.plan ~n_machines:12 ~per_segment:8 ~switch_latency:0 = None);
  check_bool "1 ns switch: no window, no plan" true
    (Sim.Lanes.plan ~n_machines:12 ~per_segment:8 ~switch_latency:1 = None)

(* Cluster-scale plans: 8-segment (64-machine) and 64-segment (512-machine)
   pools must shard into one lane per segment plus the switch lane, with
   every rank mapped to its segment's lane. *)
let test_plan_many_segments () =
  List.iter
    (fun n ->
      let segs = n / 8 in
      match Sim.Lanes.plan ~n_machines:n ~per_segment:8 ~switch_latency:100 with
      | None -> Alcotest.failf "%d machines must shard" n
      | Some p ->
        check_int
          (Printf.sprintf "%d machines: %d segments + switch" n segs)
          (segs + 1) p.Sim.Lanes.n_lanes;
        check_int "switch lane is last" segs p.Sim.Lanes.switch_lane;
        check_int "lookahead = min hop" 50 p.Sim.Lanes.lookahead;
        check_int "every rank mapped" n (Array.length p.Sim.Lanes.machine_lane);
        Array.iteri
          (fun rank lane ->
            check_int (Printf.sprintf "rank %d lane" rank) (rank / 8) lane)
          p.Sim.Lanes.machine_lane;
        Alcotest.(check (array int))
          "segment lanes enumerate segments"
          (Array.init segs (fun s -> s))
          p.Sim.Lanes.segment_lane)
    [ 64; 512 ]

(* ------------------------------------------------------------------ *)
(* The laned engine itself *)

(* A ping-pong across two lanes at exactly the lookahead horizon: the
   merge must deliver each hop into the destination lane, and reruns must
   produce the identical trace. *)
let laned_pingpong () =
  let e = Sim.Engine.create () in
  let look = 100 in
  Sim.Engine.configure_lanes e ~n:2 ~lookahead:look;
  let trace = ref [] in
  let hops = ref 10 in
  let rec hop lane () =
    trace := (Sim.Engine.now e, lane) :: !trace;
    if !hops > 0 then begin
      decr hops;
      Sim.Engine.at_lane e ~lane:(1 - lane)
        (Sim.Engine.now e + look)
        (hop (1 - lane))
    end
  in
  ignore (Sim.Engine.after e look (hop 0));
  Sim.Engine.run e;
  (List.rev !trace, Sim.Engine.windows e, Sim.Engine.cross_merged e)

let test_laned_pingpong_deterministic () =
  let t1, w1, m1 = laned_pingpong () in
  let t2, w2, m2 = laned_pingpong () in
  check_int "10 hops + start" 11 (List.length t1);
  check_int "every hop crossed lanes" 10 m1;
  check_bool "windows advanced" true (w1 > 0);
  Alcotest.(check (list (pair int int))) "trace identical on rerun" t1 t2;
  check_int "windows identical" w1 w2;
  check_int "merges identical" m1 m2;
  (* hops alternate lanes and advance by exactly the lookahead *)
  List.iteri
    (fun i (t, lane) ->
      check_int "hop time" ((i + 1) * 100) t;
      check_int "hop lane" (i mod 2) lane)
    t1

(* Same-instant cross-lane sends from two source lanes must merge in
   (time, src lane, send seq) order, independent of send order. *)
let test_merge_order () =
  let e = Sim.Engine.create () in
  Sim.Engine.configure_lanes e ~n:3 ~lookahead:10 ;
  let log = ref [] in
  let note tag () = log := tag :: !log in
  (* Lane 1 sends first in real time, but lane 0 is the smaller source id:
     at equal target times the merge must order lane 0's sends first. *)
  Sim.Engine.with_lane e 1 (fun () ->
      Sim.Engine.at_lane e ~lane:2 50 (note "from1-a");
      Sim.Engine.at_lane e ~lane:2 50 (note "from1-b"));
  Sim.Engine.with_lane e 0 (fun () ->
      Sim.Engine.at_lane e ~lane:2 50 (note "from0-a");
      Sim.Engine.at_lane e ~lane:2 40 (note "from0-early"));
  Sim.Engine.run e;
  Alcotest.(check (list string))
    "deterministic merge order"
    [ "from0-early"; "from0-a"; "from1-a"; "from1-b" ]
    (List.rev !log)

let test_step_rejects_laned () =
  let e = Sim.Engine.create () in
  Sim.Engine.configure_lanes e ~n:2 ~lookahead:5;
  Alcotest.check_raises "step on laned engine"
    (Invalid_argument "Sim.Engine.step: laned engine (use run)") (fun () ->
      ignore (Sim.Engine.step e))

(* ------------------------------------------------------------------ *)
(* Laned cluster runs *)

let tsp = Core.Runner.app_named "tsp"

let outcome ?lanes ?(procs = 12) impl =
  Core.Runner.run ?lanes ~impl ~procs tsp

(* 12 machines span two segments, so ~lanes:true actually shards; the
   whole outcome record (seconds, checksum, events, stats) must be
   reproducible run to run. *)
let test_laned_cluster_repeatable () =
  let a = outcome ~lanes:true Core.Cluster.Kernel in
  let b = outcome ~lanes:true Core.Cluster.Kernel in
  check_bool "laned run validates" true a.Core.Runner.o_valid;
  check_bool "outcomes identical" true (a = b)

(* A single-segment cluster has no plan: lanes on and off must be the
   same simulation event for event. *)
let test_single_segment_collapse () =
  let a = outcome ~procs:4 ~lanes:true Core.Cluster.User in
  let b = outcome ~procs:4 ~lanes:false Core.Cluster.User in
  check_bool "bit-identical outcomes" true (a = b)

(* Laned cells through run_many: a -j 2 pool must reproduce the
   sequential path byte for byte. *)
let test_laned_fanout_identical () =
  let cells =
    [
      (Core.Cluster.Kernel, 12, tsp);
      (Core.Cluster.User, 12, tsp);
    ]
  in
  let ctx = { Core.Ctx.default with lanes = true } in
  let seq = Core.Runner.run_many ~ctx cells in
  let par =
    Exec.Pool.with_pool ~jobs:2 (fun p ->
        Core.Runner.run_many ~ctx:{ ctx with pool = Some p } cells)
  in
  check_bool "-j1 = -j2 under lanes" true (seq = par);
  List.iter
    (fun o -> check_bool "validates" true o.Core.Runner.o_valid)
    seq

(* The laned engine must actually be in play: a 12-machine cluster
   reports a 2-segments + switch lane count and a positive lookahead. *)
let test_cluster_lane_shape () =
  let c = Core.Cluster.create ~lanes:true ~n:12 () in
  check_int "3 lanes" 3 (Sim.Engine.n_lanes c.Core.Cluster.eng);
  check_bool "positive lookahead" true
    (Sim.Engine.lookahead c.Core.Cluster.eng > 0);
  check_int "rank 0 on lane 0" 0 (Core.Cluster.machine_lane c 0);
  check_int "rank 11 on lane 1" 1 (Core.Cluster.machine_lane c 11);
  let c1 = Core.Cluster.create ~lanes:true ~n:8 () in
  check_int "single segment stays sequential" 1
    (Sim.Engine.n_lanes c1.Core.Cluster.eng)

(* A 512-node pool: 64 segments + switch, every rank's lane equal to its
   segment, and the canonical server placement spread one per segment. *)
let test_cluster_512_lane_assignment () =
  let c = Core.Cluster.create ~lanes:true ~n:512 () in
  check_int "64 segments" 64 (Core.Cluster.n_segments c);
  check_int "65 lanes" 65 (Sim.Engine.n_lanes c.Core.Cluster.eng);
  for rank = 0 to 511 do
    check_int
      (Printf.sprintf "rank %d on its segment's lane" rank)
      (rank / 8)
      (Core.Cluster.machine_lane c rank)
  done;
  let servers = Core.Cluster.server_ranks c in
  check_int "one server per segment" 64 (List.length servers);
  List.iteri
    (fun s rank -> check_int "server leads its segment" (s * 8) rank)
    servers

(* ------------------------------------------------------------------ *)
(* The run context's lane setting must reach every cluster a driver
   builds.  Each call below builds clusters of 16 machines (two
   segments), so a laned context must shard every one of their engines
   and an unlaned one none. *)

let short = { Load.Clients.default with warmup = Sim.Time.ms 20; window = Sim.Time.ms 50 }

let drivers =
  [
    ( "run_many",
      1,
      fun ctx ->
        ignore (Core.Runner.run_many ~ctx [ (Core.Cluster.User, 12, Core.Runner.app_named "ab") ])
    );
    ( "load_cell",
      1,
      fun ctx ->
        ignore (Core.Experiments.load_cell ~ctx ~nodes:16 ~impl:Core.Cluster.User short ()) );
    ( "cluster_cell",
      1,
      fun ctx ->
        ignore
          (Core.Experiments.cluster_cell ~ctx ~shards:4 ~nodes:16
             ~stack:(Core.Cluster.Rpc_stack Core.Cluster.User) ~skew:Load.Keys.Uniform
             { short with Load.Clients.clients_per_node = 1 }
             ()) );
    ( "onesided_crossover",
      2,
      fun ctx ->
        ignore
          (Core.Experiments.onesided_crossover ~ctx ~nets:[ Core.Params.net10m ]
             ~stacks:[ Core.Cluster.One_sided ] ~nodes:16 ~config:short ()) );
    ( "soak",
      1,
      fun ctx ->
        ignore
          (Front.Registry.soak.run ctx
             {
               Scenario.Soak.default with
               sk_nodes = 16;
               sk_windows = 1;
               sk_warmup = Sim.Time.ms 20;
               sk_window = Sim.Time.ms 50;
             }) );
  ]

let test_ctx_lanes_reach_clusters () =
  List.iter
    (fun (name, clusters, run) ->
      List.iter
        (fun lanes ->
          let before = Sim.Engine.laned_engines () in
          run { Core.Ctx.default with lanes };
          check_int
            (Printf.sprintf "%s, lanes=%b: laned engines built" name lanes)
            (if lanes then clusters else 0)
            (Sim.Engine.laned_engines () - before))
        [ true; false ])
    drivers

let () =
  Alcotest.run "lanes"
    [
      ( "plan",
        [
          Alcotest.test_case "two segments" `Quick test_plan_two_segments;
          Alcotest.test_case "odd latency split" `Quick test_plan_odd_latency;
          Alcotest.test_case "collapses" `Quick test_plan_collapses;
          Alcotest.test_case "8 and 64 segment pools" `Quick
            test_plan_many_segments;
        ] );
      ( "engine",
        [
          Alcotest.test_case "pingpong deterministic" `Quick
            test_laned_pingpong_deterministic;
          Alcotest.test_case "merge order" `Quick test_merge_order;
          Alcotest.test_case "step rejects laned" `Quick test_step_rejects_laned;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "lane shape" `Quick test_cluster_lane_shape;
          Alcotest.test_case "512-node lane assignment" `Quick
            test_cluster_512_lane_assignment;
          Alcotest.test_case "laned run repeatable" `Quick
            test_laned_cluster_repeatable;
          Alcotest.test_case "single segment collapse" `Quick
            test_single_segment_collapse;
          Alcotest.test_case "laned -j fan-out identical" `Quick
            test_laned_fanout_identical;
          Alcotest.test_case "run context lanes reach every cluster" `Quick
            test_ctx_lanes_reach_clusters;
        ] );
    ]
