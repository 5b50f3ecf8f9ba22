(* The benchmark's three workloads.  Each call runs fresh simulations,
   split into set-up (everything before the first simulated event) and the
   simulated phase, and returns the simulated results as a canonical text
   (digested by the caller), the operations attempted and failed, and the
   per-layer work counts read from public counters. *)

type scale = Full | Tiny

type meter = {
  spans : Spans.t option;
  recorder : Obs.Recorder.t option;
      (** traced run: installed for the whole workload *)
  mutable setup_s : float;
  mutable sim_s : float;
  mutable sim_phases : (string * float) list;
      (** host seconds of each simulation, by phase name, latest first *)
  mutable words : float;  (** minor words, both phases *)
  mutable sim_words : float;
  mutable sim_major_words : float;
}

let meter ?spans ?recorder () =
  {
    spans; recorder; setup_s = 0.; sim_s = 0.; sim_phases = []; words = 0.; sim_words = 0.;
    sim_major_words = 0.;
  }

type phase = Setup | Simulate

let major_words () =
  let _, _, major = Gc.counters () in
  major

(* A traced run's recorder is (re)installed at every phase: Load.Clients
   uninstalls it at the end of each measurement window. *)
let phase m kind name f =
  Option.iter Obs.Recorder.install m.recorder;
  let w0 = Gc.minor_words () and mj0 = major_words () in
  let t0 = Unix.gettimeofday () in
  let r = Spans.with_span m.spans name f in
  let dt = Unix.gettimeofday () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  m.words <- m.words +. dw;
  (match kind with
   | Setup -> m.setup_s <- m.setup_s +. dt
   | Simulate ->
     m.sim_s <- m.sim_s +. dt;
     m.sim_phases <- (name, dt) :: m.sim_phases;
     m.sim_words <- m.sim_words +. dw;
     m.sim_major_words <- m.sim_major_words +. (major_words () -. mj0));
  r

(* Every independent simulation starts from a compacted heap, outside the
   timed phases, so its peak resident set does not depend on where the
   previous one left the major GC cycle. *)
let fresh_heap () = Gc.compact ()

type result = {
  attempted : int;
  failed : int;
  digest : string;  (** canonical text of every simulated result *)
  counts : (string * int) list;  (** per-layer work counts *)
}

(* An operation fails when it was issued but had not completed once the
   engine drained, or when the run reports conformance violations (one
   failed operation each, so a clean-looking rate can never hide one). *)
let failures ~attempted ~unfinished ~violations =
  min attempted (unfinished + violations)

let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a

let add counts name v =
  let old = Option.value ~default:0 (List.assoc_opt name !counts) in
  counts := (name, old + v) :: List.remove_assoc name !counts

(* ---- orca-apps: LEQ on the user stack, SOR on the kernel stack ---- *)

let app name make sequential =
  { Core.Runner.app_name = name; app_make = make; app_reference = lazy (sequential ()) }

let orca_cells scale ~seed =
  let leq, sor =
    match scale with
    | Full -> ({ Apps.Leq.default_params with Apps.Leq.epsilon = 1e-3 }, Apps.Sor.default_params)
    | Tiny -> (Apps.Leq.test_params, Apps.Sor.test_params)
  in
  let leq = { leq with Apps.Leq.seed } and sor = { sor with Apps.Sor.seed } in
  [
    ( Core.Cluster.User,
      app "leq" (fun d -> Apps.Leq.make d leq) (fun () -> Apps.Leq.sequential leq) );
    ( Core.Cluster.Kernel,
      app "sor" (fun d -> Apps.Sor.make d sor) (fun () -> Apps.Sor.sequential sor) );
  ]

let orca_procs = function Full -> 16 | Tiny -> 4

(* [cells] is a parameter so the self-test can feed a wrong reference. *)
let orca_apps_with scale cells m =
  phase m Setup "apps.reference" (fun () ->
      List.iter (fun (_, a) -> Core.Runner.prepare a) cells);
  let outcomes =
    List.map
      (fun (impl, a) ->
        fresh_heap ();
        phase m Simulate ("core.runner." ^ a.Core.Runner.app_name) (fun () ->
            Core.Runner.run ~lanes:false ~impl ~procs:(orca_procs scale) a))
      cells
  in
  let b = Buffer.create 512 and counts = ref [] in
  let failed = ref 0 in
  List.iter
    (fun o ->
      let s = o.Core.Runner.o_stats in
      if (not o.Core.Runner.o_valid) || o.Core.Runner.o_violations <> [] then incr failed;
      Printf.bprintf b "%s %s P=%d sim_s=%h checksum=%d valid=%b events=%d \
                        bcast=%d rpc=%d parked=%d bytes=%d ctx=%d retrans=%d\n"
        o.Core.Runner.o_app
        (Core.Cluster.impl_label o.Core.Runner.o_impl)
        o.Core.Runner.o_procs o.Core.Runner.o_seconds o.Core.Runner.o_checksum
        o.Core.Runner.o_valid o.Core.Runner.o_events s.Core.Runner.s_broadcasts
        s.Core.Runner.s_remote s.Core.Runner.s_parked s.Core.Runner.s_net_bytes
        s.Core.Runner.s_ctx_switches o.Core.Runner.o_retrans;
      add counts "machine.ctx_switches" s.Core.Runner.s_ctx_switches;
      add counts "orca.broadcasts" s.Core.Runner.s_broadcasts;
      add counts "orca.remote_invocations" s.Core.Runner.s_remote;
      add counts "orca.parked" s.Core.Runner.s_parked;
      add counts
        (match o.Core.Runner.o_impl with
         | Core.Cluster.Kernel -> "amoeba.retrans"
         | _ -> "panda.retrans")
        o.Core.Runner.o_retrans)
    outcomes;
  { attempted = List.length outcomes; failed = !failed; digest = Buffer.contents b; counts = !counts }

let orca_apps scale ~seed m = orca_apps_with scale (orca_cells scale ~seed) m

(* ---- cluster-zipf: sharded get/put service at 256 nodes, three stacks ---- *)

(* Counters a cluster exposes publicly. *)
let cluster_counts counts (c : Core.Cluster.t) =
  let eng = c.Core.Cluster.eng and topo = c.Core.Cluster.topo in
  add counts "sim.windows" (Sim.Engine.windows eng);
  add counts "sim.cross_merged" (Sim.Engine.cross_merged eng);
  add counts "machine.ctx_switches"
    (sum (fun m -> Machine.Cpu.switches (Machine.Mach.cpu m)) c.Core.Cluster.machines);
  add counts "net.frames" (sum Net.Segment.frames_carried topo.Net.Topology.segments);
  add counts "net.switch_forwarded"
    (match topo.Net.Topology.switch with Some sw -> Net.Switch.frames_forwarded sw | None -> 0);
  add counts "flip.locates" (sum Flip.Flip_iface.locates_sent c.Core.Cluster.flips);
  add counts "flip.packets_out" (sum Flip.Flip_iface.packets_out c.Core.Cluster.flips)

let zipf_stacks =
  [ Core.Cluster.Rpc_stack Core.Cluster.Kernel;
    Core.Cluster.Rpc_stack Core.Cluster.User_optimized;
    Core.Cluster.One_sided ]

(* [check] adds a conformance check to every cell's checker, so the
   self-test can inject a violation. *)
let cluster_zipf ?check scale ~seed m =
  let nodes, window =
    match scale with Full -> (256, Sim.Time.sec 1) | Tiny -> (16, Sim.Time.ms 50)
  in
  let cfg =
    {
      Core.Experiments.cluster_default_config with
      Load.Clients.arrival = Load.Arrival.Uniform;
      rate = 1000.;
      window;
      seed;
    }
  in
  let b = Buffer.create 1024 and counts = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (fun stack ->
      let label = Core.Cluster.stack_label stack in
      fresh_heap ();
      let cluster, checker, service, rnics, backends =
        phase m Setup ("setup." ^ label) (fun () ->
            let cluster =
              Spans.with_span m.spans "core.cluster.create" (fun () ->
                  Core.Cluster.create ~lanes:true ~n:nodes ())
            in
            let checker = Faults.Invariants.create () in
            Option.iter (Faults.Invariants.add_check checker) check;
            let servers = Array.of_list (Core.Cluster.server_ranks cluster) in
            let router = Shard.Router.create ~shards:32 ~replicas:1 ~servers in
            let params =
              { Shard.Service.default_params with
                Shard.Service.sv_shards = 32; sv_replicas = 1; sv_skew = Load.Keys.Zipf 0.99 }
            in
            let service, rnics, backends =
              Spans.with_span m.spans "setup.backends+service" (fun () ->
                  match stack with
                  | Core.Cluster.Rpc_stack impl ->
                    let backends = Core.Cluster.backends ~checker cluster impl in
                    ( Shard.Service.create_rpc ~params ~backends ~router
                        ~lane_of:(Core.Cluster.machine_lane cluster) (),
                      [||], backends )
                  | Core.Cluster.One_sided ->
                    let rnics = Core.Cluster.rnics cluster in
                    Faults.Invariants.attach_rnics checker rnics;
                    (Shard.Service.create_onesided ~params ~rnics ~router (), rnics, [||]))
            in
            Shard.Service.register_checker service checker;
            (cluster, checker, service, rnics, backends))
      in
      let servers = Shard.Router.servers (Shard.Service.router service) in
      let client_ranks =
        List.filter (fun r -> not (Array.mem r servers)) (List.init nodes Fun.id)
      in
      let started = ref 0 and finished = ref 0 in
      let mt =
        phase m Simulate ("run." ^ label) (fun () ->
            Load.Clients.run_custom cfg ~eng:cluster.Core.Cluster.eng
              ~machines:cluster.Core.Cluster.machines ~label ~op_name:"shard"
              ~lane_of:(Core.Cluster.machine_lane cluster) ~server:servers.(0)
              ~client_ranks ?recorder:m.recorder
              ~op:(fun rank rng ->
                incr started;
                Shard.Service.client_op service ~rank rng;
                incr finished)
              ())
      in
      phase m Simulate ("audit." ^ label) (fun () -> Faults.Invariants.finalize checker);
      let violations =
        Faults.Invariants.n_violations checker + Shard.Service.violations service
      in
      attempted := !attempted + !started;
      failed :=
        !failed
        + failures ~attempted:!started ~unfinished:(!started - !finished) ~violations;
      Printf.bprintf b "%s/%s issued=%d completed=%d offered=%h achieved=%h p50=%h p95=%h \
                        p99=%h p999=%h mean=%h max=%h\n"
        mt.Load.Metrics.label mt.Load.Metrics.op mt.Load.Metrics.issued
        mt.Load.Metrics.completed mt.Load.Metrics.offered mt.Load.Metrics.achieved
        mt.Load.Metrics.p50_ms mt.Load.Metrics.p95_ms mt.Load.Metrics.p99_ms
        mt.Load.Metrics.p999_ms mt.Load.Metrics.mean_ms mt.Load.Metrics.max_ms;
      let eng = cluster.Core.Cluster.eng in
      Printf.bprintf b "  events=%d end=%d gets=%d puts=%d dedup=%d relays=%d violations=%d\n"
        (Sim.Engine.events_executed eng) (Sim.Engine.now eng)
        (Shard.Service.gets service) (Shard.Service.puts_acked service)
        (Shard.Service.dedup_hits service) (Shard.Service.relays service) violations;
      cluster_counts counts cluster;
      add counts "load.issued" !started;
      add counts "shard.ops" (Shard.Service.ops service);
      add counts "shard.relays" (Shard.Service.relays service);
      add counts "faults.violations" violations;
      add counts "onesided.target_ops" (sum Onesided.Rnic.target_ops rnics);
      add counts "onesided.retrans" (sum Onesided.Rnic.retransmissions rnics);
      let retrans = sum (fun bk -> bk.Orca.Backend.retransmissions ()) backends in
      (match stack with
       | Core.Cluster.Rpc_stack Core.Cluster.Kernel -> add counts "amoeba.retrans" retrans
       | _ -> add counts "panda.retrans" retrans))
    zipf_stacks;
  { attempted = !attempted; failed = !failed; digest = Buffer.contents b; counts = !counts }

(* ---- loss-soak: checked group sends under loss and a sequencer crash ---- *)

let soak_windows = function Full -> 1000 | Tiny -> 8

let soak_config scale ~seed =
  let windows = soak_windows scale in
  let window = Scenario.Soak.default.Scenario.Soak.sk_window in
  let warmup = Scenario.Soak.default.Scenario.Soak.sk_warmup in
  {
    Scenario.Soak.default with
    Scenario.Soak.sk_rate = 300.;
    sk_windows = windows;
    sk_policy = Panda.Seq_policy.Failover;
    sk_op = Load.Clients.Group;
    sk_seed = seed;
    sk_faults =
      Some
        { (Faults.Spec.loss ~seed 0.01) with
          Faults.Spec.seq_crash = Some (warmup + (windows * window / 2)) };
  }

(* Scenario.Soak.run builds its cluster inside the call, so set-up is
   timed on the same calls made separately (the cluster, the fault
   injector, the checker and the checked backends): the mean of
   [soak_setups] of them in a row.  One alone takes about 20 us, near the
   clock's 1 us resolution, and only some of them pay a major GC slice;
   over a hundred the GC share evens out.  Their allocation is not the
   workload's. *)
let soak_setup (cfg : Scenario.Soak.config) =
  let cluster = Core.Cluster.create ~n:cfg.Scenario.Soak.sk_nodes () in
  Option.iter
    (fun spec -> ignore (Faults.Inject.install cluster.Core.Cluster.eng cluster.Core.Cluster.topo spec))
    cfg.Scenario.Soak.sk_faults;
  let policy = cfg.Scenario.Soak.sk_policy in
  let checker = Faults.Invariants.create ~shards:(Panda.Seq_policy.shards policy) () in
  ignore (Core.Cluster.backends ~checker ~policy cluster cfg.Scenario.Soak.sk_impl)

let soak_setups = 100

let loss_soak scale ~seed m =
  let cfg = soak_config scale ~seed in
  let t0 = Unix.gettimeofday () in
  Spans.with_span m.spans "setup.soak-cluster" (fun () ->
      for _ = 1 to soak_setups do
        soak_setup cfg
      done);
  m.setup_s <- (Unix.gettimeofday () -. t0) /. float_of_int soak_setups;
  fresh_heap ();
  let r = phase m Simulate "scenario.soak.run" (fun () -> Scenario.Soak.run cfg) in
  let b = Buffer.create 65536 and counts = ref [] in
  List.iter
    (fun w ->
      Printf.bprintf b "w%d %h %h %h %h %h %h %h %d %d\n" w.Scenario.Soak.w_index
        w.Scenario.Soak.w_start_ms w.Scenario.Soak.w_offered w.Scenario.Soak.w_achieved
        w.Scenario.Soak.w_p50_ms w.Scenario.Soak.w_p99_ms w.Scenario.Soak.w_p999_ms
        w.Scenario.Soak.w_server_util w.Scenario.Soak.w_retrans w.Scenario.Soak.w_kills)
    r.Scenario.Soak.r_windows;
  Printf.bprintf b "%s/%s issued=%d completed=%d p99=%h p999=%h retrans=%d kills=%d \
                    seqcrash=%b violations=%d\n"
    r.Scenario.Soak.r_label r.Scenario.Soak.r_op r.Scenario.Soak.r_issued
    r.Scenario.Soak.r_completed r.Scenario.Soak.r_p99_ms r.Scenario.Soak.r_p999_ms
    r.Scenario.Soak.r_retrans r.Scenario.Soak.r_kills r.Scenario.Soak.r_seq_crashed
    r.Scenario.Soak.r_violations;
  let violations = r.Scenario.Soak.r_violations in
  add counts "load.issued" r.Scenario.Soak.r_issued;
  add counts "panda.retrans" r.Scenario.Soak.r_retrans;
  add counts "faults.killed" r.Scenario.Soak.r_kills;
  add counts "faults.violations" violations;
  (* The soak records an operation when it completes; one that never does
     is a completeness violation of the checker's finalize pass. *)
  {
    attempted = r.Scenario.Soak.r_issued;
    failed = failures ~attempted:r.Scenario.Soak.r_issued ~unfinished:0 ~violations;
    digest = Buffer.contents b;
    counts = !counts;
  }

type workload = scale -> seed:int -> meter -> result

(* Why each workload exists is recorded in README.md beside this file. *)
let all : (string * workload) list =
  [ ("orca-apps", orca_apps); ("cluster-zipf", cluster_zipf ?check:None); ("loss-soak", loss_soak) ]
