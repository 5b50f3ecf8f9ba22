type app = {
  app_name : string;
  app_make : Orca.Rts.domain -> (rank:int -> unit) * (unit -> int);
  app_reference : int Lazy.t;
}

let apps =
  [
    {
      app_name = "tsp";
      app_make = (fun dom -> Apps.Tsp.make dom Apps.Tsp.default_params);
      app_reference = lazy (Apps.Tsp.sequential Apps.Tsp.default_params);
    };
    {
      app_name = "asp";
      app_make = (fun dom -> Apps.Asp.make dom Apps.Asp.default_params);
      app_reference = lazy (Apps.Asp.sequential Apps.Asp.default_params);
    };
    {
      app_name = "ab";
      app_make = (fun dom -> Apps.Ab.make dom Apps.Ab.default_params);
      app_reference = lazy (Apps.Ab.sequential Apps.Ab.default_params);
    };
    {
      app_name = "rl";
      app_make = (fun dom -> Apps.Rl.make dom Apps.Rl.default_params);
      app_reference = lazy (Apps.Rl.sequential Apps.Rl.default_params);
    };
    {
      app_name = "sor";
      app_make = (fun dom -> Apps.Sor.make dom Apps.Sor.default_params);
      app_reference = lazy (Apps.Sor.sequential Apps.Sor.default_params);
    };
    {
      app_name = "leq";
      app_make = (fun dom -> Apps.Leq.make dom Apps.Leq.default_params);
      app_reference = lazy (Apps.Leq.sequential Apps.Leq.default_params);
    };
  ]

let app_named name =
  match List.find_opt (fun a -> a.app_name = name) apps with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Runner.app_named: unknown app %S" name)

type stats = {
  s_broadcasts : int;
  s_remote : int;
  s_parked : int;
  s_migrations : int;
  s_net_bytes : int;
  s_net_util : float;
  s_cpu_util_max : float;
  s_ctx_switches : int;
}

type outcome = {
  o_app : string;
  o_impl : Cluster.impl;
  o_procs : int;
  o_seconds : float;
  o_checksum : int;
  o_valid : bool;
  o_events : int;
  o_stats : stats;
  o_retrans : int;
  o_fault_kills : int;
  o_violations : string list;
}

let run ?faults ?(checked = false) ?net ?(lanes = false)
    ?(sequencer = Panda.Seq_policy.Single) ~impl ~procs app =
  (* The dedicated-sequencer variant sacrifices one of the P processors to
     the sequencer: P-1 Orca workers (the paper's 15 workers at P=16). *)
  let workers =
    match impl with Cluster.User_dedicated -> max 1 (procs - 1) | _ -> procs
  in
  let cluster =
    Cluster.create
      ~extra_machine:(impl = Cluster.User_dedicated)
      ?net ~lanes ~n:workers ()
  in
  let fstats =
    match faults with
    | Some spec -> Some (Faults.Inject.install cluster.Cluster.eng cluster.Cluster.topo spec)
    | None -> None
  in
  let checker =
    if checked then
      Some (Faults.Invariants.create ~shards:(Panda.Seq_policy.shards sequencer) ())
    else None
  in
  let backends = Cluster.backends ?checker ~policy:sequencer cluster impl in
  (* A scheduled sequencer crash is a fault like any other: driven by the
     spec, visible to the app only as recovery latency. *)
  (match faults with
   | Some { Faults.Spec.seq_crash = Some at; _ } ->
     ignore
       (Sim.Engine.at cluster.Cluster.eng at (fun () ->
            backends.(0).Orca.Backend.crash_sequencer ()))
   | _ -> ());
  let dom = Orca.Rts.create_domain ~rts_overhead:Params.rts_overhead backends in
  let body, result = app.app_make dom in
  let finish = ref Sim.Time.zero in
  for rank = 0 to workers - 1 do
    (* Spawn each worker under its machine's lane so the fiber's event
       chain — and everything it schedules — lives where its machine's
       segment does; a no-op on unlaned clusters. *)
    Sim.Engine.with_lane cluster.Cluster.eng (Cluster.machine_lane cluster rank)
      (fun () ->
        ignore
          (Orca.Rts.spawn dom ~rank
             (Printf.sprintf "%s.%d" app.app_name rank)
             (fun ~rank ->
               body ~rank;
               let now = Sim.Engine.now cluster.Cluster.eng in
               if now > !finish then finish := now)))
  done;
  Sim.Engine.run cluster.Cluster.eng;
  (match checker with Some c -> Faults.Invariants.finalize c | None -> ());
  let checksum = result () in
  let until = max 1 !finish in
  let stats =
    {
      s_broadcasts = Orca.Rts.broadcasts dom;
      s_remote = Orca.Rts.remote_invocations dom;
      s_parked = Orca.Rts.parked_total dom;
      s_migrations = Orca.Rts.migrations dom;
      s_net_bytes = Net.Topology.total_bytes cluster.Cluster.topo;
      s_net_util = Net.Topology.max_utilization cluster.Cluster.topo ~until;
      s_cpu_util_max =
        Array.fold_left
          (fun acc m -> Float.max acc (Machine.Mach.utilization m ~until))
          0. cluster.Cluster.machines;
      s_ctx_switches =
        Array.fold_left
          (fun acc m -> acc + Machine.Cpu.switches (Machine.Mach.cpu m))
          0 cluster.Cluster.machines;
    }
  in
  {
    o_app = app.app_name;
    o_impl = impl;
    o_procs = procs;
    o_seconds = Sim.Time.to_sec !finish;
    o_checksum = checksum;
    o_valid = checksum = Lazy.force app.app_reference;
    o_events = Sim.Engine.events_executed cluster.Cluster.eng;
    o_stats = stats;
    o_retrans = Orca.Rts.retransmissions dom;
    o_fault_kills =
      (match fstats with Some s -> Faults.Inject.killed s | None -> 0);
    o_violations =
      (match checker with Some c -> Faults.Invariants.violations c | None -> []);
  }

let prepare app = ignore (Lazy.force app.app_reference)

let run_many ?(ctx = Ctx.default) ?sequencer cells =
  let cell (impl, procs, app) =
    run ?faults:ctx.Ctx.faults ~checked:ctx.Ctx.checked ~net:ctx.Ctx.net
      ~lanes:ctx.Ctx.lanes ?sequencer ~impl ~procs app
  in
  match ctx.Ctx.pool with
  | None -> List.map cell cells
  | Some p ->
    (* Force every sequential reference before fanning out: [Lazy.force]
       from two domains at once is a race. *)
    List.iter (fun (_, _, app) -> prepare app) cells;
    Exec.Pool.map_list p cell cells

let pp_stats fmt s =
  Format.fprintf fmt
    "broadcasts=%d rpcs=%d parked=%d migrations=%d net=%dKB net-util=%.0f%% cpu-util=%.0f%% switches=%d"
    s.s_broadcasts s.s_remote s.s_parked s.s_migrations (s.s_net_bytes / 1024)
    (100. *. s.s_net_util) (100. *. s.s_cpu_util_max) s.s_ctx_switches

let pp_outcome fmt o =
  Format.fprintf fmt "%-4s %-14s P=%-2d  %8.1f s  checksum=%d%s  (%d events)%s%s" o.o_app
    (Cluster.impl_label o.o_impl) o.o_procs o.o_seconds o.o_checksum
    (if o.o_valid then "" else " INVALID")
    o.o_events
    (if o.o_fault_kills > 0 || o.o_retrans > 0 then
       Printf.sprintf "  faults: %d killed, %d retrans" o.o_fault_kills o.o_retrans
     else "")
    (match o.o_violations with
     | [] -> ""
     | v -> Printf.sprintf "  %d INVARIANT VIOLATIONS" (List.length v))
