type op = Rpc | Group

type config = {
  op : op;
  mix : Mix.t;
  reply_size : int;
  arrival : Arrival.t;
  rate : float;
  clients_per_node : int;
  warmup : Sim.Time.span;
  window : Sim.Time.span;
  seed : int;
}

let default =
  {
    op = Rpc;
    mix = Mix.single 0;
    reply_size = 0;
    arrival = Arrival.Uniform;
    rate = 200.;
    clients_per_node = 4;
    warmup = Sim.Time.ms 250;
    window = Sim.Time.sec 1;
    seed = 1;
  }

let op_label = function Rpc -> "rpc" | Group -> "group"

(* The measurement engine shared by [run] (Orca backends) and
   [run_custom] (any op body, e.g. one-sided DHT ops).  The order of every
   RNG split and every scheduled event is load-bearing: existing pinned
   results depend on it bit-for-bit. *)
let run_core cfg ~eng ~machines ~label ~op_name ?seq_machine ?lane_of ?trace
    ~server ~client_ranks ?recorder ~op () =
  (* Replay runs off a trace: the explicit override if given, else the file
     named by a [Replay] arrival (loaded once, time-scaled).  [trace]
     stays [None] on every other path, which therefore executes exactly
     the pre-replay code. *)
  let trace =
    match trace with
    | Some _ as t -> t
    | None ->
      (match cfg.arrival with
       | Arrival.Replay { rp_path; rp_scale } ->
         (match Trace.load rp_path with
          | Ok tr -> Some (if rp_scale = 1. then tr else Trace.scale rp_scale tr)
          | Error e -> failwith ("Clients: " ^ e))
       | _ -> None)
  in
  let n_clients = cfg.clients_per_node * List.length client_ranks in
  let per_client_rate = cfg.rate /. float_of_int n_clients in
  let t0 = Sim.Engine.now eng in
  let w_start = t0 + cfg.warmup in
  let w_end = w_start + cfg.window in
  let stats = Sim.Stats.create () in
  let issued = ref 0 and completed = ref 0 in
  let note ~sched ~fin =
    if sched >= w_start && sched < w_end then begin
      incr issued;
      Sim.Stats.record stats "lat_ms" (Sim.Time.to_ms (fin - sched))
    end;
    if fin >= w_start && fin < w_end then incr completed
  in
  (* Window boundaries: snapshot every CPU's busy time, and scope the
     caller's Obs recorder, if it handed one, to exactly the measurement
     window; at its end the recorder active at its start is put back.
     Without one nothing is installed or uninstalled, so a recorder the
     caller installed itself stays the active one. *)
  let n_mach = Array.length machines in
  let busy0 = Array.make n_mach 0 and busy1 = Array.make n_mach 0 in
  let seq_busy0 = ref 0 and seq_busy1 = ref 0 in
  let srv_intr0 = ref 0 and srv_intr1 = ref 0 in
  let seq_busy m = Machine.Cpu.busy_time (Machine.Mach.cpu m) in
  let intr_busy m = Machine.Cpu.busy_interrupt_time (Machine.Mach.cpu m) in
  let outer = ref None in
  ignore
    (Sim.Engine.at eng w_start (fun () ->
         Array.iteri (fun i m -> busy0.(i) <- seq_busy m) machines;
         (match seq_machine with Some m -> seq_busy0 := seq_busy m | None -> ());
         srv_intr0 := intr_busy machines.(server);
         Option.iter
           (fun r ->
             outer := Obs.Recorder.active ();
             Obs.Recorder.install r)
           recorder));
  ignore
    (Sim.Engine.at eng w_end (fun () ->
         Array.iteri (fun i m -> busy1.(i) <- seq_busy m) machines;
         (match seq_machine with Some m -> seq_busy1 := seq_busy m | None -> ());
         srv_intr1 := intr_busy machines.(server);
         if Option.is_some recorder then
           match !outer with
           | Some r -> Obs.Recorder.install r
           | None -> Obs.Recorder.uninstall ()));
  (* One RNG per client, split in client order from the root seed. *)
  let root = Sim.Rng.create ~seed:cfg.seed in
  let mean_gap_ns = if cfg.rate > 0. then 1e9 /. per_client_rate else 0. in
  let clients =
    List.concat_map
      (fun rank -> List.init cfg.clients_per_node (fun k -> (rank, k)))
      client_ranks
  in
  (* On a laned (multi-segment) engine every client fiber must be spawned
     under its machine's lane so its whole event chain stays lane-local;
     [lane_of] is the cluster's rank -> lane map.  A no-op — bit-identical
     event order — for the unlaned single-segment clusters every pinned
     result runs on. *)
  let spawn_laned rank f =
    match lane_of with
    | None -> ignore (f ())
    | Some lane -> Sim.Engine.with_lane eng (lane rank) (fun () -> ignore (f ()))
  in
  List.iteri
    (fun ci (rank, k) ->
      let rng = Sim.Rng.split root in
      let do_op size = op rank rng size in
      spawn_laned rank (fun () ->
        (Machine.Thread.spawn machines.(rank)
           (Printf.sprintf "load.%d.%d" rank k)
           (fun () ->
             match trace with
             | Some tr ->
               (* Trace replay: entries are dealt round-robin across the
                  client population; each request's schedule is its trace
                  time, so a client behind schedule issues back-to-back
                  and the latency it reports includes the backlog —
                  exactly the open-loop no-coordinated-omission rule. *)
               let len = Array.length tr in
               let rec loop j =
                 if j < len then begin
                   let e = tr.(j) in
                   let sched = t0 + e.Trace.at in
                   if sched < w_end then begin
                     let now = Sim.Engine.now eng in
                     if now < sched then Machine.Thread.sleep (sched - now);
                     do_op (Some e.Trace.size);
                     note ~sched ~fin:(Sim.Engine.now eng);
                     loop (j + n_clients)
                   end
                 end
               in
               loop ci
             | None ->
               (match cfg.arrival with
                | Arrival.Closed think ->
                  let rec loop () =
                    let sched = Sim.Engine.now eng in
                    if sched < w_end then begin
                      do_op None;
                      note ~sched ~fin:(Sim.Engine.now eng);
                      if think > 0 then Machine.Thread.sleep think;
                      loop ()
                    end
                  in
                  loop ()
                | _ ->
                  (* Stagger client start times evenly across one mean gap so
                     deterministic arrivals don't land in lockstep bursts. *)
                  let offset =
                    int_of_float (mean_gap_ns *. float_of_int ci /. float_of_int n_clients)
                  in
                  let t_next = ref (t0 + offset) in
                  let rec loop () =
                    let now = Sim.Engine.now eng in
                    if !t_next < w_end && now < w_end then begin
                      if now < !t_next then Machine.Thread.sleep (!t_next - now);
                      let sched = !t_next in
                      t_next :=
                        sched
                        + Arrival.gap cfg.arrival ~rate:per_client_rate
                            ~now:sched rng;
                      do_op None;
                      note ~sched ~fin:(Sim.Engine.now eng);
                      loop ()
                    end
                  in
                  loop ())))))
    clients;
  Sim.Engine.run eng;
  (* The run can drain before the w_end snapshot fires only if no client
     ever issues; guard so utilizations stay well-defined. *)
  let window_s = Sim.Time.to_sec cfg.window in
  let util i =
    Float.max 0. (Sim.Time.to_sec (busy1.(i) - busy0.(i)) /. window_s)
  in
  let client_util =
    List.fold_left (fun acc r -> Float.max acc (util r)) 0. client_ranks
  in
  let server_util = util server in
  let server_thread_util =
    Float.max 0.
      (Sim.Time.to_sec
         (busy1.(server) - busy0.(server) - (!srv_intr1 - !srv_intr0))
      /. window_s)
  in
  let seq_util =
    match seq_machine with
    | Some _ -> Float.max 0. (Sim.Time.to_sec (!seq_busy1 - !seq_busy0) /. window_s)
    | None -> server_util
  in
  let achieved = float_of_int !completed /. window_s in
  (* Replay and ramp arrivals have no single configured rate: the offered
     load is what was actually scheduled inside the window. *)
  let offered =
    if trace <> None then float_of_int !issued /. window_s
    else
      match cfg.arrival with
      | Arrival.Closed _ -> achieved
      | Arrival.Ramp _ -> float_of_int !issued /. window_s
      | _ -> cfg.rate
  in
  let lat p = Sim.Stats.percentile stats "lat_ms" p in
  {
    Metrics.label;
    op = op_name;
    offered;
    achieved;
    issued = !issued;
    completed = !completed;
    p50_ms = lat 50.;
    p95_ms = lat 95.;
    p99_ms = lat 99.;
    p999_ms = lat 99.9;
    mean_ms = Sim.Stats.mean stats "lat_ms";
    max_ms = (if Sim.Stats.count stats "lat_ms" = 0 then 0. else Sim.Stats.max_value stats "lat_ms");
    client_util;
    server_util;
    server_thread_util;
    seq_util;
    violations = 0;
    per_shard = [||];
  }

let resolve_ranks ~n ~server = function
  | Some l -> l
  | None -> List.filter (fun r -> r <> server) (List.init n Fun.id)

let run cfg ~eng ~backends ~machines ?seq_machine ?(server = 0) ?client_ranks
    ?recorder ?(shards = 1) ?trace () =
  let n = Array.length backends in
  if n < 2 then invalid_arg "Clients.run: need at least two ranks";
  if shards < 1 then invalid_arg "Clients.run: shards must be >= 1";
  let client_ranks = resolve_ranks ~n ~server client_ranks in
  if client_ranks = [] then invalid_arg "Clients.run: no client ranks";
  (* Echo server and group sink; installing on every rank is harmless and
     keeps the group's total order observable everywhere. *)
  Array.iter
    (fun b ->
      b.Orca.Backend.set_rpc_handler (fun ~client:_ ~size:_ _ ~reply ->
          reply ~size:cfg.reply_size Sim.Payload.Empty);
      b.Orca.Backend.set_deliver (fun ~sender:_ ~size:_ _ -> ()))
    backends;
  (* Group sends carry a counter-based ordering key — not an RNG draw, so
     the event stream (and every pinned single-shard result) is untouched
     — and the window's completions are attributed to the key's shard. *)
  let next_key = ref 0 in
  let shard_done = Array.make shards 0 in
  let t0 = Sim.Engine.now eng in
  let w_start = t0 + cfg.warmup in
  let w_end = w_start + cfg.window in
  let op rank rng size =
    (* Replayed requests carry their trace size; everything else draws from
       the mix with exactly the pre-replay stream. *)
    let size = match size with Some s -> s | None -> Mix.pick cfg.mix rng in
    let b = backends.(rank) in
    match cfg.op with
    | Rpc -> ignore (b.Orca.Backend.rpc ~dst:server ~size Sim.Payload.Empty)
    | Group ->
      let key = !next_key in
      incr next_key;
      b.Orca.Backend.broadcast ~nonblocking:false ~key ~size Sim.Payload.Empty;
      let fin = Sim.Engine.now eng in
      if fin >= w_start && fin < w_end then begin
        let sh = Panda.Seq_policy.shard_of_key ~shards key in
        shard_done.(sh) <- shard_done.(sh) + 1
      end
  in
  let m =
    run_core cfg ~eng ~machines
      ~label:backends.(0).Orca.Backend.label
      ~op_name:(op_label cfg.op) ?seq_machine ?trace ~server ~client_ranks
      ?recorder ~op ()
  in
  match cfg.op with
  | Group -> { m with Metrics.per_shard = shard_done }
  | Rpc -> m

let run_custom cfg ~eng ~machines ~label ~op_name ?seq_machine ?lane_of ?trace
    ?(server = 0) ?client_ranks ?recorder ~op () =
  let n = Array.length machines in
  if n < 2 then invalid_arg "Clients.run_custom: need at least two machines";
  let client_ranks = resolve_ranks ~n ~server client_ranks in
  if client_ranks = [] then invalid_arg "Clients.run_custom: no client ranks";
  run_core cfg ~eng ~machines ~label ~op_name ?seq_machine ?lane_of ?trace
    ~server ~client_ranks ?recorder
    ~op:(fun rank rng _size -> op rank rng)
    ()
