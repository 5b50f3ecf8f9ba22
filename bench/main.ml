(* The benchmark harness: regenerates every table and in-text measurement
   of the paper's evaluation, plus this reproduction's own ablations.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- table1       -- one artifact
     dune exec bench/main.exe -- table3 quick -- Table 3 at P in {1,8} only
     dune exec bench/main.exe -- table3 -j 4  -- fan cells out over 4 domains
     dune exec bench/main.exe -- table1 json  -- also write BENCH_results.json

   The artifacts are the named experiment lists of Front.Registry, run
   with the same run-context flags as amoeba_repro ([-j], [--profile],
   [--faults], [--checked], [--lanes]) and the same observability flags
   ([--trace], [--obs], [--obs-log]).  Every simulation is deterministic
   and confined to one domain, so the printed tables are bit-identical
   for every [-j].  The [engine] artifact benchmarks the scheduler itself
   (pure event churn, the timer-cancel pattern with the timing wheel on vs
   off, and the laned window/merge machinery).

   A Bechamel group (one Test.make per table, plus event-heap
   microbenchmarks) measures the host-side cost of regenerating each
   artifact; run it with `bechamel`. *)

open Cmdliner
module J = Obs.Export
module R = Front.Registry

(* Engine microbenchmarks: the scheduler hot paths in isolation.
   Three shapes: pure event churn (heap path only), the timer-cancel
   pattern that motivates the timing wheel — 200 ms retransmission-style
   timers armed and cancelled long before they fire — run with the wheel
   on and off on the identical schedule, and a laned run that stresses
   the conservative window/merge machinery itself.  Event counts are
   deterministic; only the wall-clock rates vary run to run. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

type shape = { label : string; key : string; events : int; wall : float }

let engine_run quick =
  let scale = if quick then 1 else 5 in
  (* Eight self-rescheduling chains with staggered near-term delays:
     every event is a heap push + pop, no timers, no lanes. *)
  let pure () =
    let n = 200_000 * scale in
    let e = Sim.Engine.create () in
    let left = ref n in
    let rec tick d () =
      if !left > 0 then begin
        decr left;
        ignore (Sim.Engine.after e d (tick d))
      end
    in
    for i = 0 to 7 do
      let d = Sim.Time.us (3 + i) in
      ignore (Sim.Engine.after e d (tick d))
    done;
    Sim.Engine.run e;
    e
  in
  (* Each tick re-arms one of 512 outstanding 200 ms timers — the
     protocol stack's dominant pattern (retransmission timers that are
     nearly always cancelled).  With the wheel the arm and the cancel are
     both O(1) and the timer never reaches the heap. *)
  let timers ~wheel () =
    let n = 100_000 * scale in
    let k = 512 in
    let e = Sim.Engine.create ~wheel () in
    let ring = Array.make k None in
    let left = ref n in
    let i = ref 0 in
    let rec tick () =
      let slot = !i mod k in
      Option.iter (Sim.Engine.cancel e) ring.(slot);
      ring.(slot) <- Some (Sim.Engine.after e (Sim.Time.ms 200) ignore);
      incr i;
      if !left > 0 then begin
        decr left;
        ignore (Sim.Engine.after e (Sim.Time.us 50) tick)
      end
    in
    ignore (Sim.Engine.after e (Sim.Time.us 50) tick);
    Sim.Engine.run e;
    e
  in
  (* A chain hopping lane to lane at exactly the lookahead horizon, plus
     local filler work: every hop crosses a window boundary, so this
     measures the window scheduling and deterministic merge overhead. *)
  let sharded () =
    let n = 50_000 * scale in
    let e = Sim.Engine.create () in
    let look = Sim.Time.us 100 in
    Sim.Engine.configure_lanes e ~n:4 ~lookahead:look;
    let left = ref n in
    let rec hop lane () =
      if !left > 0 then begin
        decr left;
        ignore (Sim.Engine.after e (Sim.Time.us 10) ignore);
        let next = (lane + 1) mod 4 in
        Sim.Engine.at_lane e ~lane:next (Sim.Engine.now e + look) (hop next)
      end
    in
    ignore (Sim.Engine.after e look (hop 0));
    Sim.Engine.run e;
    e
  in
  let shape label key f =
    let e, wall = time f in
    ({ label; key; events = Sim.Engine.events_executed e; wall }, e)
  in
  let p, _ = shape "pure-scheduler" "pure-scheduler" pure in
  let w, _ = shape "timer-cancel (wheel)" "timer-cancel-wheel" (timers ~wheel:true) in
  let h, _ = shape "timer-cancel (heap)" "timer-cancel-heap" (timers ~wheel:false) in
  let s, e = shape "sharded-merge (4 lanes)" "sharded-merge" sharded in
  ([ p; w; h; s ], Sim.Engine.windows e, Sim.Engine.cross_merged e)

let rate s = if s.wall > 0. then float_of_int s.events /. s.wall else 0.

let speedup = function
  | [ _; w; h; _ ] when w.wall > 0. -> h.wall /. w.wall
  | _ -> 0.

let engine =
  R.exp ~name:"engine" ~doc:"Scheduler microbenchmarks" (Term.const false)
    (fun _ quick -> engine_run quick)
    (fun fmt (shapes, windows, merged) ->
      List.iteri
        (fun i s ->
          Format.fprintf fmt "  %-24s %9d events  %8.3f s  %8.2f Mev/s@\n" s.label s.events
            s.wall (rate s /. 1e6);
          if i = 2 then
            Format.fprintf fmt "  wheel speedup on the timer-heavy shape: %.2fx@\n"
              (speedup shapes))
        shapes;
      Format.fprintf fmt "  windows %d, cross-lane merges %d@\n" windows merged)
    ~json:(fun _ (shapes, windows, merged) ->
      J.Obj
        [
          ( "shapes",
            J.Arr
              (List.map
                 (fun s ->
                   J.Obj
                     ([
                        ("shape", J.Str s.key); ("events", J.Int s.events);
                        ("wall_seconds", J.Num (6, s.wall));
                        ("events_per_sec", J.Num (0, rate s));
                      ]
                     @
                     if s.key = "sharded-merge" then
                       [ ("windows", J.Int windows); ("merged", J.Int merged) ]
                     else []))
                 shapes) );
          ("wheel_speedup", J.Num (3, speedup shapes));
        ])

let artifacts =
  R.artifacts
  @ [
      R.artifact "engine" (fun ~quick ->
          [ R.entry ~title:"Engine: scheduler microbenchmarks" engine quick ]);
    ]

(* ------------------------------------------------------------------ *)
(* Wall-clock accounting, for the json report: per-artifact host
   seconds, simulated events executed (across all pool domains), and the
   high-water mark of pending events (heap + wheel, max over every
   engine's lanes) — a leak in any protocol layer shows up here long
   before it shows up in wall time. *)

let timed name f =
  let e0 = Sim.Engine.events_total () in
  Sim.Engine.reset_live_hw ();
  let section, wall = time f in
  let events = Sim.Engine.events_total () - e0 in
  let row =
    J.Obj
      [
        ("name", J.Str name); ("wall_seconds", J.Num (6, wall)); ("sim_events", J.Int events);
        ("events_per_sec", J.Num (0, if wall > 0. then float_of_int events /. wall else 0.));
        ("live_hw", J.Int (Sim.Engine.live_hw ()));
      ]
  in
  (section, row)

let write_json ~jobs ~net ~sections ~rows file =
  J.Obj
    ([
       ( "host",
         J.Obj
           [
             ("os_type", J.Str Sys.os_type); ("ocaml_version", J.Str Sys.ocaml_version);
             ("word_size", J.Int Sys.word_size);
             ("recommended_domains", J.Int (Exec.Pool.recommended ()));
           ] );
       ("jobs", J.Int jobs);
       ("profile", J.Str net.Core.Params.np_name);
     ]
    @ sections
    @ [ ("artifacts", J.Arr rows) ])
  |> J.json_to_string |> J.to_file file;
  Printf.printf "\nwrote %s (%d artifacts, -j %d)\n" file (List.length rows) jobs

(* ------------------------------------------------------------------ *)
(* Bechamel: host-side cost of regenerating each artifact, and
   microbenchmarks of the event-heap hot path. *)

let bechamel_tests () =
  let open Bechamel in
  let t1 =
    Test.make ~name:"table1" (Staged.stage (fun () -> ignore (Core.Experiments.table1 ())))
  in
  let t2 =
    Test.make ~name:"table2" (Staged.stage (fun () -> ignore (Core.Experiments.table2 ())))
  in
  let t3 =
    Test.make ~name:"table3-tsp-P4"
      (Staged.stage (fun () ->
           ignore
             (Core.Runner.run ~impl:Core.Cluster.User ~procs:4 (Core.Runner.app_named "tsp"))))
  in
  let tb =
    Test.make ~name:"breakdown-rpc"
      (Staged.stage (fun () -> ignore (Core.Experiments.rpc_breakdown ())))
  in
  (* Event-heap hot paths: 1k push/pop (the engine's steady state), 1k
     push/cancel/drain (timer churn, exercises lazy deletion and
     compaction). *)
  let n = 1024 in
  let theap =
    let h = Sim.Heap.create ~dummy:0 ~capacity:(2 * n) () in
    Test.make ~name:"heap-push-pop-1k"
      (Staged.stage (fun () ->
           for i = 0 to n - 1 do
             ignore (Sim.Heap.push h ~time:(i * 7 mod 97) i)
           done;
           while not (Sim.Heap.is_empty h) do
             ignore (Sim.Heap.pop_min_exn h)
           done))
  in
  let tcancel =
    let h = Sim.Heap.create ~dummy:0 ~capacity:(2 * n) () in
    let handles = Array.make n None in
    Test.make ~name:"heap-push-cancel-1k"
      (Staged.stage (fun () ->
           for i = 0 to n - 1 do
             handles.(i) <- Some (Sim.Heap.push h ~time:(i * 7 mod 97) i)
           done;
           Array.iteri
             (fun i h' ->
               match h' with
               | Some hd -> if i land 1 = 0 then Sim.Heap.cancel h hd
               | None -> ())
             handles;
           while not (Sim.Heap.is_empty h) do
             ignore (Sim.Heap.pop_min_exn h)
           done))
  in
  let tengine =
    Test.make ~name:"engine-timer-wheel-1k"
      (Staged.stage (fun () ->
           let e = Sim.Engine.create () in
           for i = 1 to n do
             ignore (Sim.Engine.at e i ignore)
           done;
           Sim.Engine.run e))
  in
  Test.make_grouped ~name:"repro" [ t1; t2; t3; tb; theap; tcancel; tengine ]

(* Steady-state allocation per heap event: with the unboxed slot arrays
   there is no per-push handle or option box, so this prints ~0. *)
let report_heap_words () =
  let n = 100_000 in
  let h = Sim.Heap.create ~dummy:0 ~capacity:(2 * n) () in
  let measure () =
    let w0 = Gc.allocated_bytes () in
    for i = 0 to n - 1 do
      ignore (Sim.Heap.push h ~time:(i * 31 mod 1009) i)
    done;
    while not (Sim.Heap.is_empty h) do
      ignore (Sim.Heap.pop_min_exn h)
    done;
    (Gc.allocated_bytes () -. w0) /. 8.
  in
  ignore (measure ());
  (* warm: arrays at capacity *)
  let words = measure () in
  Printf.printf "  heap words/event (steady-state push+pop): %.3f\n" (words /. float_of_int n)

let run_bechamel () =
  R.hr Format.std_formatter "Bechamel: host cost of regenerating each artifact";
  Format.print_flush ();
  let open Bechamel in
  let open Toolkit in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 3.0) () in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> Printf.printf "  %-24s %10.3f ms/run\n" name (est /. 1e6)
      | Some [] | None -> Printf.printf "  %-24s (no estimate)\n" name)
    results;
  report_heap_words ()

(* ------------------------------------------------------------------ *)
(* Command line: artifact names (plus [quick], [json], [bechamel])
   anywhere among the shared run-context and observability flags. *)

let main (runner : Front.Args.runner) obs words =
  let quick = List.mem "quick" words and json = List.mem "json" words in
  let selected = List.filter (fun w -> w <> "quick" && w <> "json") words in
  let names = List.map (fun (a : R.artifact) -> a.name) artifacts @ [ "bechamel" ] in
  List.iter
    (fun w ->
      if not (List.mem w names) then begin
        Printf.eprintf "unknown artifact %S (expected %s, quick or json)\n" w
          (String.concat " | " names);
        exit 2
      end)
    selected;
  let everything = selected = [] && not (Front.Args.obs_requested obs) in
  let wants name = everything || List.mem name selected in
  let jobs, net, timings =
    runner.with_ctx (fun ctx ->
        ( (match ctx.pool with Some p -> Exec.Pool.jobs p | None -> 1),
          ctx.net,
          List.filter_map
            (fun (a : R.artifact) ->
              if not (wants a.name) then None
              else
                let name = if quick && a.quick_variant then a.name ^ "-quick" else a.name in
                let section, row = timed name (fun () -> R.run_artifact ctx ~quick a) in
                Some (Option.map (fun s -> (a.name, s)) section, row))
            artifacts ))
  in
  if wants "bechamel" then run_bechamel ();
  Front.Args.write_obs obs;
  if json then
    write_json ~jobs ~net
      ~sections:(List.filter_map fst timings)
      ~rows:(List.map snd timings) "BENCH_results.json"

let () =
  let words =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ARTIFACT"
          ~doc:
            "Artifacts to regenerate (default: all), plus $(b,quick) for the CI-sized \
             presets and $(b,json) to write BENCH_results.json")
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "main" ~doc:"Regenerate the paper's tables and this reproduction's ablations")
          Term.(const main $ Front.Args.ctx_term $ Front.Args.obs_term ~trace:true $ words)))
