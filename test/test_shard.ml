(* The cluster-scale sharded service: the pure routing model (QCheck),
   the simulated service differentially against it under random forced
   migrations, the 64-node golden grid (lanes on, -j fan-out), and
   conformance under a fault matrix while the rebalancer is active. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Router: the pure-functional model.

   The model is an owner list plus an epoch list, folded over the
   migration history; the router must agree with it after every prefix,
   and for any fixed epoch every key must have exactly one owner. *)

let model_fold ~ns ~shards ops =
  List.fold_left
    (fun (owner, epochs) (shard, to_index) ->
      let s = shard mod shards in
      if List.nth owner s = to_index then (owner, epochs)
      else
        ( List.mapi (fun i o -> if i = s then to_index else o) owner,
          List.mapi (fun i e -> if i = s then e + 1 else e) epochs ))
    (List.init shards (fun s -> s mod ns), List.init shards (fun _ -> 0))
    ops

let router_case =
  QCheck.make ~print:(fun (ns, shards, replicas, ops) ->
      Printf.sprintf "servers=%d shards=%d replicas=%d ops=[%s]" ns shards
        replicas
        (String.concat ";"
           (List.map (fun (s, d) -> Printf.sprintf "%d->%d" s d) ops)))
    QCheck.Gen.(
      int_range 1 8 >>= fun ns ->
      int_range ns 32 >>= fun shards ->
      int_range 1 ns >>= fun replicas ->
      list_size (int_range 0 40)
        (pair (int_range 0 (shards - 1)) (int_range 0 (ns - 1)))
      >>= fun ops -> return (ns, shards, replicas, ops))

let prop_router_matches_model (ns, shards, replicas, ops) =
  (* Server ranks deliberately not 0..ns-1, to catch index/rank mixups. *)
  let servers = Array.init ns (fun i -> (i * 3) + 1) in
  let r = Shard.Router.create ~shards ~replicas ~servers in
  List.iter
    (fun (shard, to_index) ->
      let s = shard mod shards in
      let before = Shard.Router.epoch r s in
      match Shard.Router.migrate r ~shard:s ~to_index with
      | None ->
        if Shard.Router.owner_index r s <> to_index then
          QCheck.Test.fail_report "no-op migrate but owner differs";
        if Shard.Router.epoch r s <> before then
          QCheck.Test.fail_report "no-op migrate burned an epoch"
      | Some e ->
        if e <> before + 1 then QCheck.Test.fail_report "epoch not bumped by 1")
    ops;
  let owner, epochs = model_fold ~ns ~shards ops in
  List.iteri
    (fun s o ->
      if Shard.Router.owner_index r s <> o then
        QCheck.Test.fail_report "owner table diverged from model";
      if Shard.Router.epoch r s <> List.nth epochs s then
        QCheck.Test.fail_report "epoch table diverged from model")
    owner;
  (* Exactly one owner per key at this epoch, and it is the shard owner;
     replica sets are distinct, primary-first, R-sized. *)
  for key = 0 to 255 do
    let s = Shard.Router.key_shard r key in
    if Shard.Router.owner_of_key r key <> Shard.Router.owner_rank r s then
      QCheck.Test.fail_report "key owner differs from its shard owner"
  done;
  for s = 0 to shards - 1 do
    let m = Shard.Router.replica_indices r s in
    if List.length m <> replicas then QCheck.Test.fail_report "replica size";
    if List.hd m <> Shard.Router.owner_index r s then
      QCheck.Test.fail_report "primary not first";
    if List.length (List.sort_uniq compare m) <> replicas then
      QCheck.Test.fail_report "replica set not distinct"
  done;
  true

let prop_locate_partitions (ns, shards, _, _) =
  ignore ns;
  let keys = 512 in
  let locate = Shard.Router.locate ~shards ~keys in
  let buckets = Shard.Router.keys_of_shard ~shards ~keys in
  let seen = Array.make keys 0 in
  Array.iteri
    (fun s ks ->
      Array.iteri
        (fun li key ->
          seen.(key) <- seen.(key) + 1;
          if locate key <> (s, li) then
            QCheck.Test.fail_report "locate disagrees with keys_of_shard")
        ks)
    buckets;
  Array.for_all (fun n -> n = 1) seen

let router_model_tests =
  List.map
    (QCheck_alcotest.to_alcotest ~long:false)
    [
      QCheck.Test.make ~count:300 ~name:"router matches pure model" router_case
        prop_router_matches_model;
      QCheck.Test.make ~count:50 ~name:"locate partitions the key space"
        router_case prop_locate_partitions;
    ]

(* ------------------------------------------------------------------ *)
(* The simulated service against the model: random forced migration
   sequences must lose no request and execute none twice.  The service's
   at-rest audit is the oracle — applied versions must equal acked puts
   exactly — and the run must observably exercise the handoff machinery
   (completed migrations; with replication, parked relays and dedup
   hits). *)

let migration_cell ~seed ~forced () =
  let cfg =
    {
      Core.Experiments.cluster_default_config with
      Load.Clients.arrival = Load.Arrival.Closed 0;
      clients_per_node = 2;
      warmup = Sim.Time.ms 50;
      window = Sim.Time.ms 250;
      seed;
    }
  in
  let rebalance =
    {
      Shard.Rebalancer.default_config with
      Shard.Rebalancer.rb_interval = Sim.Time.ms 20;
      rb_max_moves = 0;
      rb_forced = forced;
    }
  in
  let params =
    {
      Shard.Service.default_params with
      Shard.Service.sv_keys = 256;
      sv_read_pct = 50;
      sv_skew = Load.Keys.Zipf 1.2;
    }
  in
  Core.Experiments.cluster_cell ~shards:8 ~replicas:2 ~service_params:params
    ~rebalance ~nodes:16 ~stack:(Core.Cluster.Rpc_stack Core.Cluster.User)
    ~skew:(Load.Keys.Zipf 1.2) cfg ()

let test_migration_exactly_once () =
  (* Three different random histories: different seeds shift the load,
     and with it which shards are hot and where they are forced to go. *)
  List.iter
    (fun seed ->
      let forced = List.map Sim.Time.ms [ 80; 120; 160; 200 ] in
      let c = migration_cell ~seed ~forced () in
      check_int
        (Printf.sprintf "seed %d: zero service violations" seed)
        0 c.Core.Experiments.cc_service_viol;
      check_bool
        (Printf.sprintf "seed %d: migrations completed" seed)
        true
        (c.Core.Experiments.cc_migrations >= 1);
      check_bool
        (Printf.sprintf "seed %d: workload ran" seed)
        true
        (c.Core.Experiments.cc_gets + c.Core.Experiments.cc_puts > 100))
    [ 1; 2; 3 ]

let test_migration_dedup_fires () =
  (* At least one history must park relays in a freeze window and answer
     the retries from the dedup table — at-most-once observably firing. *)
  let total = ref 0 in
  List.iter
    (fun seed ->
      let forced = List.map Sim.Time.ms [ 70; 90; 110; 130; 150; 170 ] in
      let c = migration_cell ~seed ~forced () in
      check_int
        (Printf.sprintf "dedup seed %d: zero violations" seed)
        0 c.Core.Experiments.cc_service_viol;
      total := !total + c.Core.Experiments.cc_dedup_hits + c.Core.Experiments.cc_relays)
    [ 11; 12 ];
  check_bool "handoff relays or dedup hits observed" true (!total > 0)

(* ------------------------------------------------------------------ *)
(* Golden: the 64-node grid (3 stacks x 2 skews, open loop at 4000 op/s,
   lanes on) pinned bit-exactly, and the identical cells re-run over a
   2-job pool must reproduce the sequential results bit for bit. *)

let golden_grid pool =
  let cfg =
    { Core.Experiments.cluster_default_config with Load.Clients.rate = 4000. }
  in
  let cells =
    List.concat_map
      (fun stack ->
        List.map
          (fun skew () ->
            Core.Experiments.cluster_cell ~ctx:{ Core.Ctx.default with lanes = true }
              ~nodes:64 ~stack ~skew
              cfg ())
          [ Load.Keys.Uniform; Load.Keys.Zipf 0.99 ])
      [
        Core.Cluster.Rpc_stack Core.Cluster.Kernel;
        Core.Cluster.Rpc_stack Core.Cluster.User_optimized;
        Core.Cluster.One_sided;
      ]
  in
  match pool with
  | None -> List.map (fun f -> f ()) cells
  | Some p -> Exec.Pool.map_list p (fun f -> f ()) cells

(* (completed, gets, puts) per grid cell, in (stack, skew) order. *)
let golden_pinned =
  [
    ("kernel", "uniform", 1783, 1781, 205);
    ("kernel", "zipf:0.99", 1348, 1404, 160);
    ("optimized", "uniform", 1782, 1795, 206);
    ("optimized", "zipf:0.99", 1796, 1795, 206);
    ("onesided", "uniform", 1600, 1795, 206);
    ("onesided", "zipf:0.99", 1601, 1795, 206);
  ]

let test_golden_grid () =
  let seq = golden_grid None in
  let par = Exec.Pool.with_pool ~jobs:2 (fun p -> golden_grid (Some p)) in
  check_bool "-j1 = -j2 under lanes" true (seq = par);
  List.iter2
    (fun c (stack, skew, completed, gets, puts) ->
      let name what =
        Printf.sprintf "%s/%s %s" stack skew what
      in
      Alcotest.(check string)
        (name "stack") stack
        (Core.Cluster.stack_label c.Core.Experiments.cc_stack);
      Alcotest.(check string)
        (name "skew") skew
        (Load.Keys.skew_label c.Core.Experiments.cc_skew);
      check_int (name "completed") completed
        c.Core.Experiments.cc_metrics.Load.Metrics.completed;
      check_int (name "gets") gets c.Core.Experiments.cc_gets;
      check_int (name "puts") puts c.Core.Experiments.cc_puts;
      check_int (name "violations") 0
        (c.Core.Experiments.cc_service_viol
        + c.Core.Experiments.cc_metrics.Load.Metrics.violations))
    seq golden_pinned

(* ------------------------------------------------------------------ *)
(* Conformance under faults while the rebalancer is active: packet loss
   plus a switch partition across live handoffs must produce zero
   checker violations and still complete every client request. *)

let test_faults_under_migration () =
  let faults =
    match Faults.Spec.parse "seed=5,loss=0.01,swpart=0.3+0.05" with
    | Ok s -> s
    | Error m -> Alcotest.failf "spec: %s" m
  in
  let cfg =
    {
      Core.Experiments.cluster_default_config with
      Load.Clients.arrival = Load.Arrival.Closed 0;
      clients_per_node = 2;
      warmup = Sim.Time.ms 50;
      window = Sim.Time.ms 400;
    }
  in
  let rebalance =
    {
      Shard.Rebalancer.default_config with
      Shard.Rebalancer.rb_interval = Sim.Time.ms 20;
      rb_max_moves = 0;
      rb_forced = List.map Sim.Time.ms [ 80; 150; 250; 330 ];
    }
  in
  let c =
    Core.Experiments.cluster_cell
      ~ctx:{ Core.Ctx.default with faults = Some faults; checked = true }
      ~shards:8 ~replicas:2
      ~nodes:16 ~stack:(Core.Cluster.Rpc_stack Core.Cluster.User)
      ~skew:(Load.Keys.Zipf 1.2) ~rebalance cfg ()
  in
  check_int "checker violations" 0 c.Core.Experiments.cc_metrics.Load.Metrics.violations;
  check_int "service violations" 0 c.Core.Experiments.cc_service_viol;
  check_bool "migrations under faults" true (c.Core.Experiments.cc_migrations >= 1);
  check_bool "completeness: the workload drained" true
    (c.Core.Experiments.cc_gets + c.Core.Experiments.cc_puts > 100)

let suite =
  [
    ("router model", router_model_tests);
    ( "golden",
      [
        Alcotest.test_case "64-node grid pinned, -j1 = -j2 with lanes" `Quick
          test_golden_grid;
      ] );
    ( "faults",
      [
        Alcotest.test_case "loss + switch partition during handoffs" `Quick
          test_faults_under_migration;
      ] );
    ( "migration",
      [
        Alcotest.test_case "random forced migrations: exactly once" `Quick
          test_migration_exactly_once;
        Alcotest.test_case "freeze-window relays answered from dedup" `Quick
          test_migration_dedup_fires;
      ] );
  ]

let () = Alcotest.run "shard" suite
