open Cmdliner
module E = Core.Experiments
module M = Load.Metrics
module J = Obs.Export

type csv = string list * (string list * M.t) list

type ('p, 'r) exp = {
  name : string;
  doc : string;
  params : 'p Term.t;
  run : Core.Ctx.t -> 'p -> 'r;
  pp : Format.formatter -> 'r -> unit;
  json : (Core.Ctx.t -> 'r -> J.json) option;
  failures : 'r -> int;
  csv : ('r -> csv) option;
  trace : ('p -> [ `User | `Kernel | `Opt ] * int) option;
}

type t = E : ('p, 'r) exp -> t

let exp ~name ~doc ?json ?(failures = fun _ -> 0) ?csv ?trace params run pp =
  { name; doc; params; run; pp; json; failures; csv; trace }

(* ------------------------------------------------------------------ *)
(* Shared printing, JSON and argument helpers *)

let hr fmt title =
  Format.fprintf fmt "@\n%s@\n%s@\n" title (String.make (String.length title) '=')

let secs s = Sim.Time.us_f (s *. 1e6)
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let num d x = J.Num (d, x)
let obj fields = J.Obj fields
let arr f l = J.Arr (List.map f l)

let knee_json = function
  | Load.Sweep.Knee k -> num 1 k
  | Load.Sweep.Unsaturated -> J.Str "unsaturated"
  | Load.Sweep.Saturated -> J.Null

let opt_arg c ?docv names ~doc d = Arg.(value & opt c d & info names ?docv ~doc)
let flag_arg names ~doc = Arg.(value & flag & info names ~doc)
let int_arg names ~doc d = opt_arg Arg.int names ~doc d
let float_arg names ~doc d = opt_arg Arg.float names ~doc d
let some_list c names ~docv ~doc = opt_arg Arg.(some (list c)) names ~docv ~doc None
let nodes_arg d = int_arg [ "nodes" ] ~doc:"Cluster size in machines" d
let procs_arg = int_arg [ "procs"; "p" ] ~doc:"Number of processors" 8
let seed_arg = int_arg [ "seed" ] ~doc:"Master seed of the RNG streams" 1

let impl_arg =
  opt_arg Args.impl [ "impl" ] ~doc:"kernel | user | user-dedicated | optimized"
    Core.Cluster.User

let impls_arg =
  some_list Args.impl [ "impls" ] ~docv:"IMPL,..."
    ~doc:"Stacks to run (default kernel,user,optimized)"

let mix_arg =
  opt_arg Args.mix [ "mix" ] ~docv:"SIZExW,..."
    ~doc:"Weighted request-size mix in bytes, e.g. $(b,64x9,8192x1)" (Load.Mix.single 0)

let op_arg =
  opt_arg Args.op [ "op" ] ~doc:"Operation under load: $(b,rpc) or $(b,group)" Load.Clients.Rpc

(* The client-population flags a load experiment shares: [clients],
   [window] and [warmup] defaults are the experiment's own, everything
   else starts from {!Load.Clients.default}; [extra] adds flags that
   edit the config further. *)
let config_term ?(extra = Term.const Fun.id) ~clients ~window ~warmup () =
  Term.(
    const (fun clients_per_node window warmup seed f ->
        f
          {
            Load.Clients.default with
            clients_per_node;
            window = secs window;
            warmup = secs warmup;
            seed;
          })
    $ int_arg [ "clients" ] ~doc:"Client threads per client node" clients
    $ float_arg [ "window" ] ~doc:"Measurement window, simulated seconds" window
    $ float_arg [ "warmup" ] ~doc:"Warmup before the window, seconds" warmup
    $ seed_arg $ extra)

(* The bench presets' windows: short for the CI-sized quick run. *)
let quick_config ~quick ~window =
  {
    Load.Clients.default with
    window = secs (if quick then window else 1.);
    warmup = Sim.Time.ms (if quick then 100 else 250);
  }

let no_params = Term.const ()

(* ------------------------------------------------------------------ *)
(* Table 1, Table 2, latency *)

let paper_table1 =
  [
    (0.53, 0.62, 1.56, 1.27, 1.67, 1.44);
    (1.50, 1.58, 2.53, 2.23, 3.59, 3.38);
    (2.50, 2.55, 3.60, 3.40, 3.67, 3.44);
    (3.72, 3.74, 4.77, 4.48, 4.84, 4.56);
    (4.18, 4.23, 5.27, 5.06, 5.35, 5.25);
  ]

let table1 =
  exp ~name:"table1" ~doc:"Regenerate Table 1 (latencies)" no_params
    (fun ctx () -> E.table1 ~ctx ())
    (fun fmt rows ->
      Format.fprintf fmt "%6s  %-14s %-14s %-14s %-14s %-14s %-14s %-9s %-9s@\n" "size"
        "unicast/user" "mcast/user" "RPC/user" "RPC/kernel" "group/user" "group/kernel"
        "RPC/opt" "group/opt";
      List.iter2
        (fun (r : E.lat_row) (pu, pm, pru, prk, pgu, pgk) ->
          Format.fprintf fmt
            "%6d  %5.2f (%4.2f)   %5.2f (%4.2f)   %5.2f (%4.2f)   %5.2f (%4.2f)   %5.2f \
             (%4.2f)   %5.2f (%4.2f)   %5.2f     %5.2f@\n"
            r.lr_size r.lr_unicast pu r.lr_multicast pm r.lr_rpc_user pru r.lr_rpc_kernel
            prk r.lr_grp_user pgu r.lr_grp_kernel pgk r.lr_rpc_opt r.lr_grp_opt)
        rows paper_table1)

let throughput =
  exp ~name:"throughput" ~doc:"Measure RPC and group throughput (Table 2)" no_params
    (fun ctx () -> E.table2 ~ctx ())
    (fun fmt rows ->
      List.iter2
        (fun (r : E.tput_row) (pu, pk) ->
          Format.fprintf fmt
            "%-6s  user %5.0f (%4.0f)   kernel %5.0f (%4.0f)   optimized %5.0f@\n" r.tr_proto
            r.tr_user pu r.tr_kernel pk r.tr_opt)
        rows
        [ (825., 897.); (941., 941.) ])

let latency =
  let micro = function
    | Core.Cluster.Kernel -> `Kernel
    | Core.Cluster.User_optimized -> `Opt
    | _ -> `User
  in
  exp ~name:"latency" ~doc:"Measure RPC and group latency (Table 1 entries)"
    ~trace:(fun (impl, size) -> (micro impl, size))
    Term.(
      const (fun impl size -> (impl, size))
      $ impl_arg
      $ int_arg [ "size" ] ~doc:"Message payload bytes" 0)
    (fun ctx (impl, size) ->
      ( impl,
        size,
        E.rpc_latency ~ctx ~impl:(micro impl) ~size (),
        E.group_latency ~ctx ~impl:(micro impl) ~size () ))
    (fun fmt (impl, size, rpc, grp) ->
      let l = Core.Cluster.impl_label impl in
      Format.fprintf fmt "RPC   %-6s %5d B: %.3f ms@\ngroup %-6s %5d B: %.3f ms@\n" l size
        rpc l size grp)

(* ------------------------------------------------------------------ *)
(* Breakdowns and ablations *)

let breakdown =
  let paper_rpc = [ 300.; 140.; 50.; 40.; 16.; 54. ]
  and paper_grp = [ 230.; 110.; 50.; 20.; -24.; 30. ] in
  exp ~name:"breakdown" ~doc:"Regenerate the Sec. 4 overhead breakdowns" no_params
    (fun ctx () ->
      let rpc_m, grp_m = E.measured_breakdown ~ctx () in
      (E.rpc_breakdown ~ctx (), E.group_breakdown ~ctx (), rpc_m, grp_m))
    (fun fmt (rpc, grp, rpc_m, grp_m) ->
      hr fmt "RPC null-latency gap breakdown [us] (paper, Sec. 4.2)";
      List.iter2
        (fun (label, v) pv -> Format.fprintf fmt "  %-36s %6.0f (paper ~%3.0f)@\n" label v pv)
        rpc paper_rpc;
      hr fmt "Group breakdown [us]: total gap + user-path mechanism costs (paper, Sec. 4.3)";
      List.iter2
        (fun (label, v) pv ->
          Format.fprintf fmt "  %-48s %6.0f (paper's differential ~%4.0f)@\n" label v pv)
        grp paper_grp;
      hr fmt "Measured accounting from the cost ledger [us/round] (Sec. 4.2/4.3 re-derived)";
      let side analytic rows =
        List.iter
          (fun (label, v) ->
            match List.assoc_opt label analytic with
            | Some a -> Format.fprintf fmt "  %-48s %6.1f (analytic %6.1f)@\n" label v a
            | None -> Format.fprintf fmt "  %-48s %6.1f@\n" label v)
          rows
      in
      Format.fprintf fmt "RPC (user-kernel ledger deltas):@\n";
      side rpc rpc_m;
      Format.fprintf fmt "group (user path; total and header rows are deltas):@\n";
      side grp grp_m)

let optimized =
  exp ~name:"optimized"
    ~doc:
      "The optimized user-space stack's null-latency differential: which ledger cells \
       each optimization removed, with a zero residual"
    no_params
    (fun ctx () -> E.optimized_breakdown ~ctx ())
    (fun fmt (rpc, grp) ->
      Format.fprintf fmt "@[<v>optimized rpc:@,%a@]@." E.pp_opt_breakdown rpc;
      Format.fprintf fmt "@[<v>optimized group:@,%a@]@." E.pp_opt_breakdown grp)

let ablation =
  exp ~name:"ablation" ~doc:"The reproduction's ablations (Sec. 2 and Sec. 6 extensions)"
    no_params
    (fun ctx () ->
      ( E.ablation_dedicated_sequencer ~ctx ~procs:[ 8; 16; 32 ] (),
        E.ablation_nonblocking ~ctx (),
        E.ablation_migration ~ctx (),
        E.ablation_user_level_network ~ctx (),
        E.ablation_continuations ~ctx ~procs:16 () ))
    (fun fmt (dedicated, nonblocking, migration, network, continuations) ->
      let rows title line l =
        hr fmt title;
        List.iter (fun (label, v) -> Format.fprintf fmt line label v) l
      in
      hr fmt "Ablation: dedicated sequencer for LEQ [s]";
      List.iter (fun o -> Format.fprintf fmt "  %a@." Core.Runner.pp_outcome o) dedicated;
      rows "Ablation: nonblocking broadcast (paper Sec. 6 extension)" "  %-28s %6.3f ms@\n"
        nonblocking;
      rows "Ablation: adaptive object placement (Sec. 2 runtime heuristic)" "  %-40s %8.1f@\n"
        migration;
      rows "Ablation: user-level network access (the paper's Sec. 6 projection)"
        "  %-42s %6.3f ms@\n" network;
      rows "Ablation: continuations vs blocked server threads (RL, P=16)" "  %-40s %6.1f s@\n"
        continuations)

(* ------------------------------------------------------------------ *)
(* Table 3, single application runs, the fault sweep *)

let paper_table3 =
  (* app -> impl -> [P1; P8; P16; P32] *)
  [
    ("tsp", [ ("kernel", [ 790.; 87.; 44.; 23. ]); ("user", [ 783.; 92.; 46.; 24. ]) ]);
    ("asp", [ ("kernel", [ 213.; 30.; 17.; 11. ]); ("user", [ 216.; 31.; 18.; 11. ]) ]);
    ("ab", [ ("kernel", [ 565.; 106.; 78.; 60. ]); ("user", [ 567.; 106.; 78.; 59. ]) ]);
    ("rl", [ ("kernel", [ 759.; 132.; 115.; 114. ]); ("user", [ 767.; 133.; 119.; 108. ]) ]);
    ("sor", [ ("kernel", [ 118.; 20.; 14.; 13. ]); ("user", [ 118.; 19.; 13.; 11. ]) ]);
    ( "leq",
      [
        ("kernel", [ 521.; 102.; 91.; 127. ]);
        ("user", [ 527.; 113.; 112.; 164. ]);
        ("user-dedicated", [ 527.; 116.; 94.; 128. ]);
      ] );
  ]

let paper_time app impl procs =
  Option.bind (List.assoc_opt app paper_table3) (fun impls ->
      Option.bind (List.assoc_opt impl impls) (fun times ->
          Option.bind (List.assoc_opt procs [ (1, 0); (8, 1); (16, 2); (32, 3) ])
            (List.nth_opt times)))

let outcome_failures (o : Core.Runner.outcome) =
  List.length o.o_violations + if o.o_valid then 0 else 1

let table3 =
  exp ~name:"table3" ~doc:"Regenerate Table 3 (Orca application runtimes)"
    ~failures:(fun (_, os) -> sum outcome_failures os)
    (opt_arg Arg.(list int) [ "procs" ] ~docv:"P,..." ~doc:"Processor counts" [ 1; 8; 16; 32 ])
    (fun ctx procs -> (procs, E.table3 ~ctx ~procs ()))
    (fun fmt (procs, outcomes) ->
      Format.fprintf fmt "%-4s %-15s" "app" "implementation";
      List.iter (fun p -> Format.fprintf fmt "  %12s" (Printf.sprintf "P=%d" p)) procs;
      Format.fprintf fmt "  %8s@\n" "speedup";
      let find app impl p =
        List.find_opt
          (fun (o : Core.Runner.outcome) ->
            o.o_app = app && Core.Cluster.impl_label o.o_impl = impl && o.o_procs = p)
          outcomes
      in
      List.iter
        (fun (app, impls) ->
          (* The optimized stack has no paper column — it is this
             reproduction's own extension — but its rows print alongside. *)
          List.iter
            (fun (impl, _) ->
              match List.filter_map (find app impl) procs with
              | [] -> ()
              | times ->
                Format.fprintf fmt "%-4s %-15s" app impl;
                List.iter
                  (fun (o : Core.Runner.outcome) ->
                    match paper_time app impl o.o_procs with
                    | Some pt -> Format.fprintf fmt "  %6.1f (%4.0f)" o.o_seconds pt
                    | None -> Format.fprintf fmt "  %6.1f       " o.o_seconds)
                  times;
                (match (times, List.rev times) with
                 | first :: _ :: _, last :: _ ->
                   Format.fprintf fmt "  %8.1f"
                     (first.Core.Runner.o_seconds /. last.Core.Runner.o_seconds)
                 | _ -> ());
                Format.fprintf fmt "@\n")
            (impls @ [ ("optimized", []) ]))
        paper_table3;
      if List.exists (fun (o : Core.Runner.outcome) -> not o.o_valid) outcomes then
        Format.fprintf fmt
          "WARNING: some runs produced checksums differing from the sequential reference!@\n"
      else Format.fprintf fmt "(all runs validated against host-side sequential results)@\n")

let app =
  let apps = List.map (fun a -> (a.Core.Runner.app_name, a)) Core.Runner.apps in
  exp ~name:"app" ~doc:"Run one Orca application (a Table 3 cell)"
    ~failures:(fun (o, _) -> outcome_failures o)
    Term.(
      const (fun app impl procs stats sequencer -> (app, impl, procs, stats, sequencer))
      $ Arg.(
          required
          & pos 0 (some (enum apps)) None
          & info [] ~docv:"APP" ~doc:"tsp | asp | ab | rl | sor | leq")
      $ impl_arg $ procs_arg
      $ flag_arg [ "stats" ] ~doc:"Print protocol and utilization counters"
      $ opt_arg Args.policy [ "sequencer" ] ~docv:"MODE"
          ~doc:
            "Sequencer capacity policy for the group protocol: $(b,single) (the \
             paper's, default), $(b,batch)[:N], $(b,rotate)[:N], $(b,shard)[:N] or \
             $(b,failover).  The kernel stack accepts single and batch only."
          Panda.Seq_policy.Single)
    (fun ctx (app, impl, procs, stats, sequencer) ->
      ( Core.Runner.run ?faults:ctx.faults ~checked:ctx.checked ~net:ctx.net ~lanes:ctx.lanes
          ~sequencer ~impl ~procs app,
        stats ))
    (fun fmt (o, stats) ->
      Format.fprintf fmt "%a@." Core.Runner.pp_outcome o;
      if stats then Format.fprintf fmt "  %a@." Core.Runner.pp_stats o.o_stats;
      List.iter (fun v -> Format.fprintf fmt "  violation: %s@\n" v) o.o_violations)

let fault_sweep =
  exp ~name:"fault-sweep"
    ~doc:
      "Latency and correctness of both stacks vs. frame-loss rate (checked mode; nonzero \
       exit on any invariant violation)"
    ~failures:(sum (fun (r : E.fault_row) -> r.fw_violations + if r.fw_valid then 0 else 1))
    Term.(
      const (fun rates app procs seed -> (rates, app, procs, seed))
      $ opt_arg Arg.(list float) [ "rates" ] ~docv:"P,..."
          ~doc:"Frame-loss probabilities to sweep" [ 0.; 0.001; 0.01; 0.05 ]
      $ opt_arg Arg.string [ "app" ] ~doc:"Application for the checked run" "tsp"
      $ procs_arg
      $ opt_arg Arg.(some int) [ "seed" ]
          ~doc:"Master seed of the fault schedules (default: the $(b,--faults) seed, else 1)"
          None)
    (fun ctx (rates, app_name, procs, seed) ->
      E.fault_sweep ~ctx ~rates ~app_name ~procs ?seed ())
    (fun fmt rows ->
      List.iter (fun r -> Format.fprintf fmt "  %a@." E.pp_fault_row r) rows;
      if List.exists (fun (r : E.fault_row) -> r.fw_violations > 0 || not r.fw_valid) rows
      then Format.fprintf fmt "WARNING: invariant violations or invalid results under faults!@\n"
      else
        Format.fprintf fmt "(all rates: zero invariant violations, results match fault-free)@\n")

(* ------------------------------------------------------------------ *)
(* Load sweeps: rate ramps, sequencer saturation and policy capacity *)

let csv_columns =
  [
    "label"; "op"; "offered"; "achieved"; "issued"; "completed"; "p50_ms"; "p95_ms";
    "p99_ms"; "p999_ms"; "mean_ms"; "max_ms"; "client_util"; "server_util"; "seq_util";
    "violations";
  ]

let csv_row (m : M.t) =
  let f3 = Printf.sprintf "%.3f" and f6 = Printf.sprintf "%.6f" in
  [
    m.label; m.op; f3 m.offered; f3 m.achieved; string_of_int m.issued;
    string_of_int m.completed; f6 m.p50_ms; f6 m.p95_ms; f6 m.p99_ms; f6 m.p999_ms;
    f6 m.mean_ms; f6 m.max_ms; f6 m.client_util; f6 m.server_util; f6 m.seq_util;
    string_of_int m.violations;
  ]

let write_csv path ((extra_columns, rows) : csv) =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (String.concat "," (extra_columns @ csv_columns) ^ "\n");
      List.iter
        (fun (extra, m) -> output_string oc (String.concat "," (extra @ csv_row m) ^ "\n"))
        rows);
  Printf.printf "wrote %s (%d rows)\n" path (List.length rows)

type load_p = {
  lp_config : Load.Clients.config;
  lp_impls : Core.Cluster.impl list option;
  lp_rates : float list option;
  lp_nodes : int option;
  lp_sequencer : Panda.Seq_policy.t list option;
      (** run the sequencer experiments instead of a rate ramp *)
  lp_senders : int list option;  (** sender counts; the bench's quick preset sets them *)
}

type load_r =
  | Curves of (Core.Cluster.impl * Load.Sweep.curve) list
  | Saturation of (Core.Cluster.impl * (int * M.t) list) list
  | Policies of Core.Cluster.impl * (Panda.Seq_policy.t * (int * M.t) list) list

let load_csv = function
  | Curves cs ->
    ([], List.concat_map (fun (_, c) -> List.map (fun m -> ([], m)) c.Load.Sweep.c_points) cs)
  | Saturation rows ->
    ( [ "senders" ],
      List.concat_map
        (fun (_, pts) -> List.map (fun (s, m) -> ([ string_of_int s ], m)) pts)
        rows )
  | Policies (_, rows) ->
    ( [ "policy"; "senders" ],
      List.concat_map
        (fun (p, pts) ->
          List.map (fun (s, m) -> ([ Panda.Seq_policy.to_string p; string_of_int s ], m)) pts)
        rows )

let load_json ctx r =
  let profile = ("profile", J.Str ctx.Core.Ctx.net.np_name) in
  let stack impl = ("stack", J.Str (Core.Cluster.impl_label impl)) in
  let sat_point (s, (m : M.t)) =
    obj
      ([
         ("senders", J.Int s); ("achieved", num 1 m.achieved); ("p50_ms", num 3 m.p50_ms);
         ("p99_ms", num 3 m.p99_ms); ("seq_util", num 4 m.seq_util);
         ("violations", J.Int m.violations);
       ]
      @
      if Array.length m.per_shard > 1 then
        [ ("per_shard", arr (fun n -> J.Int n) (Array.to_list m.per_shard)) ]
      else [])
  in
  let point (m : M.t) =
    obj
      [
        ("offered", num 1 m.offered); ("achieved", num 1 m.achieved);
        ("p50_ms", num 3 m.p50_ms); ("p95_ms", num 3 m.p95_ms); ("p99_ms", num 3 m.p99_ms);
        ("server_util", num 4 m.server_util); ("seq_util", num 4 m.seq_util);
        ("violations", J.Int m.violations);
      ]
  in
  match r with
  | Curves cs ->
    arr
      (fun (_, c) ->
        obj
          [
            profile; ("stack", J.Str c.Load.Sweep.c_label);
            ("knee", knee_json (Load.Sweep.knee c)); ("peak", num 1 (Load.Sweep.peak c));
            ("points", arr point c.c_points);
          ])
      cs
  | Saturation rows ->
    arr (fun (impl, pts) -> obj [ profile; stack impl; ("points", arr sat_point pts) ]) rows
  | Policies (impl, rows) ->
    arr
      (fun (policy, pts) ->
        obj
          [
            profile; stack impl; ("policy", J.Str (Panda.Seq_policy.to_string policy));
            ("points", arr sat_point pts);
          ])
      rows

let load_sweep =
  let load_flags =
    Term.(
      const (fun op mix arrival c -> { c with Load.Clients.op; mix; arrival })
      $ op_arg $ mix_arg
      $ opt_arg Args.arrival [ "arrival" ] ~docv:"PROC"
          ~doc:
            "Arrival process: $(b,uniform), $(b,poisson), $(b,closed=US) (think time, \
             us), $(b,ramp:S)[$(b,/FLOOR)] (diurnal raised-cosine, period S seconds) or \
             $(b,replay:FILE)[$(b,@SCALE)] (trace replay)"
          Load.Arrival.Uniform)
  in
  exp ~name:"load-sweep"
    ~doc:
      "Drive the stacks with sustained seeded traffic: throughput-latency curves with tail \
       percentiles and knee detection, or (with $(b,--sequencer)) group-sender scaling \
       until the sequencers saturate"
    ~json:load_json
    ~failures:(fun r -> sum (fun (_, m) -> m.M.violations) (snd (load_csv r)))
    ~csv:load_csv
    Term.(
      const (fun lp_config lp_impls lp_rates lp_nodes lp_sequencer lp_senders ->
          { lp_config; lp_impls; lp_rates; lp_nodes; lp_sequencer; lp_senders })
      $ config_term ~extra:load_flags ~clients:Load.Clients.default.clients_per_node ~window:1.
          ~warmup:0.25 ()
      $ impls_arg
      $ some_list Arg.float [ "rates" ] ~docv:"R,..."
          ~doc:"Offered-load ramp in aggregate ops/s"
      $ opt_arg Arg.(some int) [ "nodes" ]
          ~doc:"Cluster size in machines (default 4; 8 with $(b,--sequencer))" None
      $ Arg.(
          value
          & opt ~vopt:(Some [ Panda.Seq_policy.Single ]) (some Args.policies) None
          & info [ "sequencer" ] ~docv:"MODE,..."
              ~doc:
                "Run the sequencer-saturation experiment instead of a rate ramp: \
                 closed-loop group senders scaled over ranks until the sequencer is the \
                 bottleneck.  Without a value (or with $(b,single)) the stacks are \
                 compared under the paper's protocol; with policy modes ($(b,single) | \
                 $(b,batch)[:N] | $(b,rotate)[:N] | $(b,shard)[:N] | $(b,failover), \
                 comma-separated, or $(b,all)) the first stack of $(b,--impls) (default \
                 user) is swept policy by policy.")
      $ const None)
    (fun ctx p ->
      let config = p.lp_config and senders = p.lp_senders and impls = p.lp_impls in
      let clients_per_node = config.clients_per_node in
      let nodes = Option.value p.lp_nodes ~default:(if p.lp_sequencer = None then 4 else 8) in
      match p.lp_sequencer with
      | None -> Curves (E.load_sweep ~ctx ~nodes ~config ?rates:p.lp_rates ?impls ())
      | Some ([ Panda.Seq_policy.Single ] | []) ->
        Saturation
          (E.sequencer_saturation ~ctx ~nodes ?senders ~clients_per_node ~config ?impls ())
      | Some policies ->
        let impl = match impls with Some (i :: _) -> i | _ -> Core.Cluster.User in
        Policies
          ( impl,
            E.sequencer_policy_sweep ~ctx ~nodes ?senders ~clients_per_node ~config ~impl
              ~policies () ))
    (fun fmt r ->
      let groups pp rows =
        List.iter
          (fun (key, pts) ->
            List.iter (fun row -> Format.fprintf fmt "  %a@." pp (key, row)) pts;
            Format.fprintf fmt "@.")
          rows
      in
      match r with
      | Curves cs ->
        List.iter (fun (_, c) -> Format.fprintf fmt "%a@.@." Load.Sweep.pp_curve c) cs
      | Saturation rows -> groups (fun fmt (_, row) -> E.pp_saturation_row fmt row) rows
      | Policies (_, rows) -> groups E.pp_policy_row rows)

(* ------------------------------------------------------------------ *)
(* Scenarios: trace replay, tail grid, soak, calibration *)

exception Usage of string

let replay =
  let file names ~doc = opt_arg Arg.(some string) names ~docv:"FILE" ~doc None in
  let synth =
    Term.(
      const (fun rate duration period floor burst_mult mix seed path ->
          let t =
            Load.Trace.synthesize ?period:(Option.map secs period) ~floor ~burst_mult ~mix
              ~rate ~duration:(secs duration) ~seed ()
          in
          Load.Trace.save path t;
          Printf.printf "wrote %s: %d requests over %.3f s (peak %.0f/s, floor %.2f)\n%!" path
            (Load.Trace.length t)
            (Sim.Time.to_sec (Load.Trace.duration t))
            rate floor)
      $ float_arg [ "rate" ] ~doc:"Peak aggregate arrival rate for synthesis, ops/s" 400.
      $ float_arg [ "duration" ] ~doc:"Synthesized trace length, seconds" 2.
      $ opt_arg Arg.(some float) [ "period" ]
          ~doc:"Diurnal cycle of the synthesized ramp, seconds (default: the whole duration)"
          None
      $ float_arg [ "floor" ] ~doc:"Trough rate as a fraction of the peak, in (0, 1]" 0.1
      $ float_arg [ "burst-mult" ] ~doc:"Rate multiplier inside periodic burst windows" 3.
      $ mix_arg $ seed_arg)
  in
  exp ~name:"replay"
    ~doc:
      "Synthesize and/or replay a timestamped request trace against a cluster: entries \
       are dealt round-robin to the client population and latency is measured from each \
       request's scheduled trace time"
    ~failures:(fun m -> m.M.violations)
    Term.(
      const (fun gen trace synth scale impl nodes clients seed ->
          (gen, trace, synth, scale, impl, nodes, clients, seed))
      $ file [ "gen" ]
          ~doc:
            "Synthesize a trace (diurnal ramp x bursts over a Poisson base) and write it \
             to $(docv) instead of, or before, replaying"
      $ file [ "trace" ]
          ~doc:
            "Replay $(docv) against a cluster; with $(b,--gen FILE) and no $(b,--trace), \
             the generated trace is replayed directly"
      $ synth
      $ float_arg [ "scale" ] ~doc:"Time-scale the replayed trace: < 1 compresses it" 1.
      $ impl_arg $ nodes_arg 4
      $ int_arg [ "clients" ] ~doc:"Client threads per client node"
          Load.Clients.default.clients_per_node
      $ seed_arg)
    (fun ctx (gen, trace, synth, scale, impl, nodes, clients_per_node, seed) ->
      Option.iter synth gen;
      let path =
        match (trace, gen) with
        | Some path, _ | None, Some path -> path
        | None, None -> raise (Usage "replay: nothing to do (need --gen and/or --trace)")
      in
      let tr =
        match Load.Trace.load path with
        | Ok t -> Load.Trace.scale scale t
        | Error e -> raise (Usage ("replay: " ^ e))
      in
      (* The window covers the whole scaled trace plus drain slack, so
         every entry is measured; warmup 0 keeps trace offset = schedule. *)
      E.load_cell ~ctx ~nodes ~impl
        {
          Load.Clients.default with
          arrival = Load.Arrival.Replay { rp_path = path; rp_scale = scale };
          clients_per_node;
          warmup = 0;
          window = Load.Trace.duration tr + Sim.Time.ms 500;
          seed;
        }
        ())
    (fun fmt m -> Format.fprintf fmt "%a@.%a@." M.pp_header () M.pp m)

type tail_p = {
  tp_config : Load.Clients.config;
  tp_impls : Core.Cluster.impl list option;
  tp_losses : float list option;
  tp_rates : float list option;
  tp_nodes : int;
}

let tail_grid =
  exp ~name:"tail-grid"
    ~doc:
      "Sweep frame-loss rate x offered load per stack and report p99/p99.9 tail \
       amplification over the loss-free baseline — the cost of the 200 ms \
       retransmission timeout under loss"
    ~failures:(sum (fun (c : E.tail_cell) -> c.tc_metrics.violations))
    ~csv:(fun cells ->
      ( [ "loss" ],
        List.map
          (fun (c : E.tail_cell) -> ([ Printf.sprintf "%.6f" c.tc_loss ], c.tc_metrics))
          cells ))
    ~json:(fun _ ->
      arr (fun (c : E.tail_cell) ->
          obj
            [
              ("impl", J.Str (Core.Cluster.impl_label c.tc_impl)); ("loss", num 4 c.tc_loss);
              ("rate", num 0 c.tc_rate); ("p50_ms", num 3 c.tc_metrics.p50_ms);
              ("p99_ms", num 3 c.tc_metrics.p99_ms); ("p999_ms", num 3 c.tc_metrics.p999_ms);
              ("amp99", num 2 c.tc_amp99); ("amp999", num 2 c.tc_amp999);
              ("violations", J.Int c.tc_metrics.violations);
            ]))
    Term.(
      const (fun tp_config tp_impls tp_losses tp_rates tp_nodes ->
          { tp_config; tp_impls; tp_losses; tp_rates; tp_nodes })
      $ Term.(
          const (fun window seed -> { Load.Clients.default with window = secs window; seed })
          $ float_arg [ "window" ] ~doc:"Measurement window, simulated seconds" 1.
          $ seed_arg)
      $ impls_arg
      $ some_list Arg.float [ "losses" ] ~docv:"P,..."
          ~doc:
            "Frame-loss probabilities (default 0,0.001,0.01,0.03); a 0 baseline column is \
             added if omitted"
      $ some_list Arg.float [ "rates" ] ~docv:"R,..."
          ~doc:"Offered loads in aggregate ops/s (default 200,800)"
      $ nodes_arg 4)
    (fun ctx p ->
      E.tail_grid ~ctx ~nodes:p.tp_nodes ~config:p.tp_config ?losses:p.tp_losses
        ?rates:p.tp_rates ?impls:p.tp_impls ())
    (fun fmt cells -> List.iter (fun c -> Format.fprintf fmt "  %a@." E.pp_tail_cell c) cells)

let soak =
  let d = Scenario.Soak.default in
  exp ~name:"soak"
    ~doc:
      "Long-horizon soak: diurnal load, optional fault churn and mid-run sequencer crash, \
       conformance checkers always on, one timeline row per window; nonzero exit on any \
       invariant violation"
    ~failures:(fun r -> r.Scenario.Soak.r_violations)
    ~json:(fun _ (r : Scenario.Soak.report) ->
      obj
        [
          ( "windows",
            arr
              (fun (w : Scenario.Soak.window) ->
                obj
                  [
                    ("offered", num 1 w.w_offered); ("achieved", num 1 w.w_achieved);
                    ("p99_ms", num 3 w.w_p99_ms); ("retrans", J.Int w.w_retrans);
                    ("kills", J.Int w.w_kills);
                  ])
              r.r_windows );
          ("issued", J.Int r.r_issued); ("completed", J.Int r.r_completed);
          ("p999_ms", num 3 r.r_p999_ms); ("seq_crashed", J.Bool r.r_seq_crashed);
          ("violations", J.Int r.r_violations);
        ])
    Term.(
      const
        (fun sk_impl sk_nodes sk_policy sk_op sk_rate period sk_floor sk_clients_per_node
             window sk_windows sk_mix sk_seed ->
          {
            d with
            sk_impl; sk_nodes; sk_policy; sk_op; sk_rate; sk_period = secs period; sk_floor;
            sk_clients_per_node; sk_window = secs window; sk_windows; sk_mix; sk_seed;
          })
      $ impl_arg $ nodes_arg d.sk_nodes
      $ opt_arg Args.policy [ "sequencer" ] ~docv:"MODE" ~doc:"Sequencer capacity policy"
          d.sk_policy
      $ op_arg
      $ float_arg [ "rate" ] ~doc:"Peak aggregate arrival rate, ops/s" d.sk_rate
      $ float_arg [ "period" ] ~doc:"Diurnal cycle length, seconds"
          (Sim.Time.to_sec d.sk_period)
      $ float_arg [ "floor" ] ~doc:"Trough rate as a fraction of the peak, in (0, 1]"
          d.sk_floor
      $ int_arg [ "clients" ] ~doc:"Client threads per client node" d.sk_clients_per_node
      $ float_arg [ "window" ] ~doc:"Length of one report window, seconds"
          (Sim.Time.to_sec d.sk_window)
      $ int_arg [ "windows" ] ~doc:"Number of consecutive report windows" d.sk_windows
      $ mix_arg $ seed_arg)
    (fun ctx cfg ->
      Scenario.Soak.run
        { cfg with sk_faults = ctx.faults; sk_net = Some ctx.net; sk_lanes = ctx.lanes })
    (fun fmt r -> Format.fprintf fmt "  %a@." Scenario.Soak.pp_report r)

type calib = {
  cb_era : Core.Params.net_profile;
  cb_measurement : Scenario.Calibrate.measurement;
  cb_fit : (Core.Params.net_profile * float * float, string) result;
      (** fitted profile, reference and fitted null-RPC latency *)
  cb_saved : string option;
  cb_detail : bool;  (** print the probes and the fitted profile text *)
}

let calib_exact c =
  match c.cb_fit with
  | Ok (f, ref_ms, fit_ms) ->
    ref_ms = fit_ms
    && f.Core.Params.np_segment = c.cb_era.np_segment
    && f.np_nic = c.cb_era.np_nic && f.np_switch = c.cb_era.np_switch
  | Error _ -> false

let calibrate =
  exp ~name:"calibrate"
    ~doc:
      "Recover a network cost profile from probe simulations alone (wire-busy, \
       receive-interrupt and switch round-trip observables, exact integer fits) and verify \
       it reproduces the reference latency; $(b,--out) saves a profile file for \
       $(b,--profile)"
    ~failures:(fun c -> if calib_exact c then 0 else 1)
    ~json:(fun _ c ->
      let ref_ms, fit_ms = match c.cb_fit with Ok (_, r, f) -> (r, f) | Error _ -> (0., 0.) in
      obj
        [
          ("era", J.Str c.cb_era.np_name); ("exact", J.Bool (calib_exact c));
          ("reference_ms", num 6 ref_ms); ("fitted_ms", num 6 fit_ms);
        ])
    Term.(
      const (fun name out -> (name, out, true))
      $ opt_arg Arg.string [ "name" ] ~doc:"The fitted profile's $(b,name) field" "fitted"
      $ opt_arg Arg.(some string) [ "out" ] ~docv:"FILE"
          ~doc:"Write the fitted profile to $(docv) (readable by $(b,--profile))" None)
    (fun ctx (name, out, cb_detail) ->
      let m = Scenario.Calibrate.measure ~net:ctx.net () in
      let cb_fit =
        Result.map
          (fun f ->
            let ref_ms, fit_ms = Scenario.Calibrate.verify ~reference:ctx.net f in
            (f, ref_ms, fit_ms))
          (Scenario.Calibrate.fit ~name m)
      in
      let cb_saved =
        match (cb_fit, out) with
        | Ok (f, _, _), Some path ->
          Core.Params.net_profile_save path f;
          Some path
        | _ -> None
      in
      { cb_era = ctx.net; cb_measurement = m; cb_fit; cb_saved; cb_detail })
    (fun fmt c ->
      match c.cb_fit with
      | Error e ->
        if c.cb_detail then Format.fprintf fmt "%a" Scenario.Calibrate.pp c.cb_measurement;
        Format.fprintf fmt "%sfit FAILED: %s@." (if c.cb_detail then "" else "  ") e
      | Ok (f, ref_ms, fit_ms) when c.cb_detail ->
        Format.fprintf fmt "%afitted constants:@.%s" Scenario.Calibrate.pp c.cb_measurement
          (Core.Params.net_profile_to_string f);
        Format.fprintf fmt "verify: user null RPC %.3f ms (reference) vs %.3f ms (fitted)%s@."
          ref_ms fit_ms
          (if ref_ms = fit_ms then " — exact" else " — MISMATCH");
        Option.iter (Format.fprintf fmt "wrote %s@.") c.cb_saved
      | Ok (_, ref_ms, fit_ms) ->
        Format.fprintf fmt "  %s: constants %s, user null RPC %.3f ms vs %.3f ms@\n"
          c.cb_era.np_name
          (if calib_exact c then "recovered bit-exactly" else "MISMATCH")
          ref_ms fit_ms)

(* ------------------------------------------------------------------ *)
(* The DHT and the one-sided crossover *)

type dht_p = {
  dp_config : Load.Clients.config;
  dp_nets : Core.Params.net_profile list option;  (** [None]: the context's era *)
  dp_stacks : Core.Cluster.stack list option;
  dp_reads : int list;
  dp_nodes : int;
}

let xcell_violations (c : E.xcell) =
  c.xc_dht_violations + c.xc_latency.violations + c.xc_capacity.violations

let xcell_json (c : E.xcell) =
  let l = c.xc_ledger in
  obj
    [
      ("profile", J.Str c.xc_net); ("stack", J.Str (Core.Cluster.stack_label c.xc_stack));
      ("read_pct", J.Int c.xc_read_pct); ("capacity", num 1 c.xc_capacity.achieved);
      ("p50_ms", num 3 c.xc_latency.p50_ms); ("server_util", num 4 c.xc_capacity.server_util);
      ("server_thread_util", num 4 c.xc_capacity.server_thread_util);
      ("wire_util", num 4 c.xc_wire_util); ("initiator_cpu_ms", num 3 l.ol_initiator_ms);
      ("target_cpu_ms", num 3 l.ol_target_ms); ("nic_cpu_ms", num 3 l.ol_nic_ms);
      ("stack_cpu_ms", num 3 l.ol_stack_ms); ("residual_ms", num 3 l.ol_residual_ms);
      ("violations", J.Int (xcell_violations c));
    ]

let crossover_row_json (r : E.crossover_row) =
  obj
    [
      ("profile", J.Str r.xs_net); ("read_pct", J.Int r.xs_read_pct);
      ("best_rpc", J.Str r.xs_best_rpc); ("rpc_capacity", num 1 r.xs_rpc_capacity);
      ("onesided_capacity", num 1 r.xs_os_capacity); ("onesided_wins", J.Bool r.xs_os_wins);
    ]

let crossover_exp ~name ~doc nets stacks =
  exp ~name ~doc ~failures:(sum xcell_violations)
    ~json:(fun _ cells ->
      obj
        [
          ("cells", arr xcell_json cells);
          ("crossover", arr crossover_row_json (E.crossover_summary cells));
        ])
    Term.(
      const (fun dp_config dp_nets dp_stacks dp_reads dp_nodes ->
          { dp_config; dp_nets; dp_stacks; dp_reads; dp_nodes })
      $ config_term ~clients:2 ~window:0.5 ~warmup:0.1 ()
      $ nets $ stacks
      $ opt_arg Arg.(list int) [ "reads" ] ~docv:"PCT,..."
          ~doc:"Get share(s) of the Zipf get/put mix, percent" [ 90 ]
      $ nodes_arg 4)
    (fun ctx p ->
      E.onesided_crossover ~ctx
        ~nets:(Option.value p.dp_nets ~default:[ ctx.net ])
        ?stacks:p.dp_stacks ~read_pcts:p.dp_reads ~nodes:p.dp_nodes ~config:p.dp_config ())
    (fun fmt cells ->
      List.iter (fun c -> Format.fprintf fmt "  %a@." E.pp_xcell c) cells;
      Format.fprintf fmt "@.";
      List.iter
        (fun r -> Format.fprintf fmt "  %a@." E.pp_crossover_row r)
        (E.crossover_summary cells);
      if sum xcell_violations cells > 0 then
        Format.fprintf fmt "WARNING: DHT coherence or invariant violations!@\n"
      else Format.fprintf fmt "(all cells: zero coherence and invariant violations)@\n")

let dht =
  crossover_exp ~name:"dht"
    ~doc:
      "Run the Zipf get/put distributed hash table over one stack on one network era (a \
       crossover cell): latency probe plus closed-loop capacity, with the ledger partition \
       and coherence checks"
    (Term.const None)
    Term.(
      const (fun s -> Some [ s ])
      $ opt_arg Args.stack [ "stack" ] ~doc:"kernel | user | optimized | onesided"
          Core.Cluster.One_sided)

let crossover =
  crossover_exp ~name:"crossover"
    ~doc:
      "Sweep the DHT workload over profile x stack x mix and report the RPC-vs-one-sided \
       capacity crossover with its ledger-differential mechanism"
    (opt_arg
       Arg.(some (list Args.profile))
       [ "profiles" ] ~docv:"ERA,..." ~doc:"Network eras to sweep"
       (Some Core.Params.[ net10m; net100m; net1g ]))
    (some_list Args.stack [ "stacks" ] ~docv:"STACK,..."
       ~doc:"Stacks to compare (default kernel,user,optimized,onesided)")

(* ------------------------------------------------------------------ *)
(* Cluster scale *)

type cluster_p = {
  cp_combos : (int * float list option) list;  (** (nodes, offered-rate ramp) *)
  cp_stacks : Core.Cluster.stack list option;
  cp_skews : Load.Keys.skew list;
  cp_shards : int;
  cp_replicas : int;
  cp_window : float option;
  cp_seed : int;
  cp_rebalance : bool;
  cp_forced : float list;
  cp_ab : bool;  (** the placement A/B instead of the rate sweep *)
}

type cluster_r =
  | Sweeps of
      ((int * Core.Cluster.stack * Load.Keys.skew) * E.ccell list * Load.Sweep.knee) list
  | Ab of E.ccell * E.ccell

let ccell_violations (c : E.ccell) = c.cc_service_viol + c.cc_metrics.violations

let ccell_json (c : E.ccell) =
  obj
    [
      ("nodes", J.Int c.cc_nodes); ("stack", J.Str (Core.Cluster.stack_label c.cc_stack));
      ("skew", J.Str (Load.Keys.skew_label c.cc_skew));
      ("offered", num 1 c.cc_metrics.offered); ("achieved", num 1 c.cc_metrics.achieved);
      ("p50_ms", num 3 c.cc_metrics.p50_ms); ("p99_ms", num 3 c.cc_metrics.p99_ms);
      ("server_max", num 4 c.cc_server_max); ("wire_max", num 4 c.cc_wire_max);
      ("cross_frac", num 4 c.cc_cross_frac); ("switch_fps", num 0 c.cc_switch_fps);
      ("gets", J.Int c.cc_gets); ("puts", J.Int c.cc_puts);
      ("migrations", J.Int c.cc_migrations); ("violations", J.Int (ccell_violations c));
    ]

let migration_delta (a : E.ccell) (b : E.ccell) =
  100. *. (b.cc_metrics.achieved -. a.cc_metrics.achieved) /. a.cc_metrics.achieved

let cluster =
  exp ~name:"cluster"
    ~doc:
      "Cluster-scale sharded service: 64-512 node multi-segment pools under a Zipf-routed \
       get/put workload, swept to the saturation knee, with optional ledger-driven shard \
       migration ($(b,--rebalance), $(b,--force-migrate)) and the placement A/B \
       ($(b,--migration-ab))"
    ~failures:(function
      | Sweeps sweeps -> sum (fun (_, cells, _) -> sum ccell_violations cells) sweeps
      | Ab (a, b) -> ccell_violations a + ccell_violations b)
    ~json:(fun _ -> function
      | Sweeps sweeps ->
        arr
          (fun ((n, stack, skew), cells, knee) ->
            obj
              [
                ("nodes", J.Int n); ("stack", J.Str (Core.Cluster.stack_label stack));
                ("skew", J.Str (Load.Keys.skew_label skew)); ("knee", knee_json knee);
                ("points", arr ccell_json cells);
              ])
          sweeps
      | Ab (s, r) ->
        obj
          [
            ("static", ccell_json s); ("rebalanced", ccell_json r);
            ("delta_pct", num 1 (migration_delta s r));
            ("migration_wins", J.Bool (r.cc_metrics.achieved > s.cc_metrics.achieved));
          ])
    Term.(
      const
        (fun nodes cp_stacks cp_skews rates cp_shards cp_replicas cp_window cp_seed
             cp_rebalance cp_forced cp_ab ->
          {
            cp_combos = List.map (fun n -> (n, rates)) nodes; cp_stacks; cp_skews; cp_shards;
            cp_replicas; cp_window; cp_seed; cp_rebalance; cp_forced; cp_ab;
          })
      $ opt_arg Arg.(list int) [ "nodes" ] ~docv:"N,..."
          ~doc:
            "Pool sizes to sweep, machines (multi-segment: 8 per Ethernet segment behind \
             the switch).  64-512 are the intended scales."
          E.cluster_nodes
      $ some_list Args.stack [ "stacks" ] ~docv:"STACK,..."
          ~doc:"Stacks to sweep (default kernel,user,optimized,onesided)"
      $ opt_arg Arg.(list Args.skew) [ "skews" ] ~docv:"SKEW,..."
          ~doc:"Key popularity skews: $(b,uniform) or $(b,zipf:THETA)" E.cluster_skews
      $ some_list Arg.float [ "rates" ] ~docv:"R,..."
          ~doc:"Open-loop offered-load ramp, aggregate ops/s (default 2000,4000,8000)"
      $ int_arg [ "shards" ] ~doc:"Shards in the key space" 32
      $ int_arg [ "replicas" ]
          ~doc:"Copies per shard (primary + backups; one-sided runs force 1)" 1
      $ opt_arg Arg.(some float) [ "window" ]
          ~doc:"Measurement window, simulated seconds (default 0.4)" None
      $ seed_arg
      $ flag_arg [ "rebalance" ]
          ~doc:
            "Run the ledger-driven rebalancer: a controller samples every server's CPU \
             busy-time ledger and migrates shards off saturated machines mid-run."
      $ opt_arg Arg.(list float) [ "force-migrate" ] ~docv:"T,..."
          ~doc:
            "Simulated seconds at which the rebalancer must issue a migration regardless \
             of its saturation gates (implies $(b,--rebalance))."
          []
      $ flag_arg [ "migration-ab" ]
          ~doc:
            "Instead of the rate sweep, run the placement A/B: the identical skewed \
             closed-loop workload with and without the rebalancer.")
    (fun ctx p ->
      let rebalance =
        if (not p.cp_rebalance) && p.cp_forced = [] then None
        else Some { E.cluster_ab_rebalance with rb_forced = List.map secs p.cp_forced }
      in
      let config base =
        let base = { base with Load.Clients.seed = p.cp_seed } in
        Option.fold p.cp_window ~none:base ~some:(fun w -> { base with window = secs w })
      in
      let shards = p.cp_shards and replicas = p.cp_replicas in
      if p.cp_ab then
        let first l = List.nth_opt l 0 in
        let static, rebal =
          E.cluster_migration_ab ~ctx ~shards ~replicas ?rebalance
            ?nodes:(first (List.map fst p.cp_combos))
            ?stack:(Option.bind p.cp_stacks first) ?skew:(first p.cp_skews)
            ~config:(config E.cluster_ab_config) ()
        in
        Ab (static, rebal)
      else
        Sweeps
          (List.concat_map
             (fun (n, rates) ->
               E.cluster_sweep ~ctx ~shards ~replicas ?rebalance ~nodes:[ n ]
                 ?stacks:p.cp_stacks ~skews:p.cp_skews ?rates
                 ~config:(config E.cluster_default_config) ())
             p.cp_combos))
    (fun fmt -> function
      | Sweeps sweeps ->
        List.iter
          (fun ((n, stack, skew), cells, knee) ->
            Format.fprintf fmt "  -- %d nodes  %s  %s@." n (Core.Cluster.stack_label stack)
              (Load.Keys.skew_label skew);
            List.iter (fun c -> Format.fprintf fmt "  %a@." E.pp_ccell c) cells;
            Format.fprintf fmt "     knee: %a@." E.pp_knee knee)
          sweeps
      | Ab (static, rebal) ->
        Format.fprintf fmt "  static     %a@." E.pp_ccell static;
        Format.fprintf fmt "  rebalanced %a@." E.pp_ccell rebal;
        Format.fprintf fmt "  migration delta: %+.1f%% (%d migrations)@."
          (migration_delta static rebal) rebal.cc_migrations)

(* ------------------------------------------------------------------ *)
(* The registry and the amoeba_repro subcommands generated from it *)

let experiments =
  [
    E latency; E throughput; E app; E fault_sweep; E load_sweep; E replay; E tail_grid;
    E soak; E calibrate; E dht; E crossover; E cluster; E table1; E breakdown; E optimized;
    E table3; E ablation;
  ]

let command (E e) =
  let out =
    match e.csv with
    | None -> Term.const None
    | Some _ ->
      opt_arg Arg.(some string) [ "out" ] ~docv:"FILE"
        ~doc:"Also dump every measured operating point to $(docv) as CSV" None
  in
  let run (runner : Args.runner) obs p out =
    match
      runner.with_ctx (fun ctx ->
          let r = e.run ctx p in
          Format.printf "%a@?" e.pp r;
          (match (e.csv, out) with Some csv, Some path -> write_csv path (csv r) | _ -> ());
          e.failures r)
    with
    | exception Usage msg ->
      prerr_endline msg;
      exit 2
    | failures ->
      Args.write_obs ?run:(Option.map (fun f -> f p) e.trace) obs;
      if failures > 0 then begin
        Printf.eprintf "%s: %d failed checks\n" e.name failures;
        exit 1
      end
  in
  Cmd.v (Cmd.info e.name ~doc:e.doc)
    Term.(const run $ Args.ctx_term $ Args.obs_term ~trace:(e.trace <> None) $ e.params $ out)

(* ------------------------------------------------------------------ *)
(* Benchmark artifacts: named lists of (JSON key, experiment, preset) *)

type entry =
  | Entry : {
      key : string option;
      title : string option;
      exp : ('p, 'r) exp;
      preset : 'p;
      adjust : Core.Ctx.t -> Core.Ctx.t;
    }
      -> entry

let entry ?key ?title ?(adjust = Fun.id) exp preset = Entry { key; title; exp; preset; adjust }

type artifact = {
  name : string;
  quick_variant : bool;
  entries : quick:bool -> entry list;
  footer : (int -> string) option;
}

let artifact ?(quick_variant = true) ?footer name entries =
  { name; quick_variant; entries; footer }

let load_preset ~quick ?sequencer () =
  let seq = sequencer <> None in
  {
    lp_config =
      { (quick_config ~quick ~window:0.3) with clients_per_node = (if seq then 2 else 4) };
    lp_impls = (if quick then Some [ Core.Cluster.User_optimized ] else None);
    lp_rates = (if quick && not seq then Some [ 400.; 1200.; 2000. ] else None);
    lp_nodes = None;
    lp_sequencer = sequencer;
    lp_senders = (if quick && seq then Some [ 1; 2 ] else None);
  }

let cluster_preset ~quick =
  {
    cp_combos =
      ((64, Some [ 4000. ]) :: if quick then [] else [ (256, Some [ 1000.; 2000.; 4000. ]) ]);
    cp_stacks = Some Core.Cluster.[ Rpc_stack Kernel; Rpc_stack User_optimized; One_sided ];
    cp_skews = E.cluster_skews;
    cp_shards = 32;
    cp_replicas = 1;
    cp_window = None;
    cp_seed = 1;
    cp_rebalance = false;
    cp_forced = [];
    cp_ab = false;
  }

(* The bench pins its cluster cells with lanes on, and its soak runs a
   fixed lossy schedule with a sequencer crash. *)
let with_lanes ctx = { ctx with Core.Ctx.lanes = true }

let soak_faults ctx =
  {
    ctx with
    Core.Ctx.faults = Some (Result.get_ok (Faults.Spec.parse "seed=5,loss=0.01,seqcrash=0.4"));
  }

let artifacts =
  let fixed ?title name exp =
    artifact ~quick_variant:false name (fun ~quick:_ -> [ entry ?title exp () ])
  in
  let sized ~quick q full = if quick then q else full in
  [
    fixed "table1" table1
      ~title:
        "Table 1: communication latencies [ms] (paper values in parentheses; optimized \
         columns are this reproduction's own)";
    fixed "table2" throughput
      ~title:
        "Table 2: communication throughputs [KB/s] (paper values in parentheses; \
         optimized column is this reproduction's own)";
    fixed "breakdown" breakdown;
    fixed "optimized" optimized
      ~title:"Optimized user-space stack: null-latency differential vs. baseline";
    artifact "table3" (fun ~quick ->
        [
          entry ~title:"Table 3: Orca application runtimes [s] (paper values in parentheses)"
            table3
            (sized ~quick [ 1; 8 ] [ 1; 8; 16; 32 ]);
        ]);
    artifact "faults" (fun ~quick ->
        [
          entry ~title:"Fault sweep: degradation and conformance vs. frame-loss rate"
            fault_sweep
            (sized ~quick [ 0.; 0.01 ] [ 0.; 0.001; 0.01; 0.05 ], "tsp", 8, None);
        ]);
    artifact "load" (fun ~quick ->
        [
          entry ~key:"rpc_sweep" ~title:"Load: throughput-latency curves (null RPC, open loop)"
            load_sweep (load_preset ~quick ());
          entry ~key:"sequencer_saturation"
            ~title:
              (sized ~quick "Load: sequencer saturation (quick: 2-point sweep, 8 nodes)"
                 "Load: sequencer saturation (closed-loop group senders, 8 nodes)")
            load_sweep
            (load_preset ~quick ~sequencer:[ Panda.Seq_policy.Single ] ());
          entry ~key:"sequencer_policies"
            ~title:
              (sized ~quick "Load: sequencer policy capacity (quick: 2-point sweep, user stack)"
                 "Load: sequencer policy capacity (user stack, policy x senders)")
            load_sweep
            { (load_preset ~quick ~sequencer:E.sequencer_policies ()) with lp_impls = None };
        ]);
    artifact "onesided" (fun ~quick ->
        [
          entry ~title:"One-sided crossover: DHT over all four stacks across network eras"
            crossover
            {
              dp_config = { (quick_config ~quick ~window:0.3) with clients_per_node = 2 };
              dp_nets =
                Some (sized ~quick Core.Params.[ net10m; net1g ] Core.Params.net_profiles);
              dp_stacks = None;
              dp_reads = [ 90 ];
              dp_nodes = 4;
            };
        ]);
    artifact "cluster"
      ~footer:(fun n ->
        if n > 0 then Printf.sprintf "WARNING: %d service conformance violations!" n
        else "(all cells: zero service conformance violations)")
      (fun ~quick ->
        [
          entry ~key:"sweeps" ~title:"Cluster scale: sharded Zipf service on multi-segment pools"
            ~adjust:with_lanes cluster (cluster_preset ~quick);
          entry ~key:"migration_ab"
            ~title:"Cluster scale: ledger-driven migration vs static placement"
            ~adjust:with_lanes cluster
            {
              (cluster_preset ~quick) with
              cp_combos = [ (64, None) ];
              cp_stacks = None;
              cp_skews = [ Load.Keys.Zipf 1.2 ];
              cp_ab = true;
            };
        ]);
    artifact "scenario"
      ~footer:(fun n ->
        if n > 0 then
          Printf.sprintf "WARNING: %d soak conformance violations or calibration mismatches!" n
        else "(soak: zero conformance violations)")
      (fun ~quick ->
        [
          entry ~key:"tail_grid" ~title:"Scenario: tail amplification under frame loss"
            tail_grid
            {
              tp_config = { Load.Clients.default with window = secs (sized ~quick 0.5 1.) };
              tp_impls = Some (sized ~quick [ Core.Cluster.User ] E.load_impls);
              tp_losses = Some (sized ~quick [ 0.01 ] E.tail_losses);
              tp_rates = Some (sized ~quick [ 200. ] [ 200.; 800. ]);
              tp_nodes = 4;
            };
          entry ~key:"soak"
            ~title:"Scenario: checked soak (diurnal ramp, 1% loss, sequencer crash)"
            ~adjust:soak_faults soak
            {
              Scenario.Soak.default with
              sk_rate = 300.;
              sk_windows = sized ~quick 4 8;
              sk_policy = Panda.Seq_policy.Failover;
              sk_op = Load.Clients.Group;
            };
          entry ~key:"calibration" ~title:"Scenario: cost-profile calibration round-trip"
            calibrate ("fitted", None, false);
        ]);
    fixed "ablation" ablation;
  ]

let run_artifact ctx ~quick a =
  let sections, failures =
    List.split
      (List.map
         (fun (Entry e) ->
           Option.iter (hr Format.std_formatter) e.title;
           let ctx = e.adjust ctx in
           let r = e.exp.run ctx e.preset in
           Format.printf "%a@?" e.exp.pp r;
           let section =
             match (e.exp.json, e.key) with
             | None, _ -> []
             | Some json, Some k -> [ (k, json ctx r) ]
             | Some json, None -> (
               match json ctx r with J.Obj fields -> fields | j -> [ (a.name, j) ])
           in
           (section, e.exp.failures r))
         (a.entries ~quick))
  in
  Option.iter (fun f -> Format.printf "%s@." (f (List.fold_left ( + ) 0 failures))) a.footer;
  match List.concat sections with [] -> None | fields -> Some (J.Obj fields)
