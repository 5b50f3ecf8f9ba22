(* End-to-end application tests: each app, run through the full simulated
   stack on both protocol implementations, must reproduce the host-side
   sequential result exactly. *)

open Sim
open Machine
open Net

let machine_config = Core.Params.machine

let make_domain ?(extra = false) n kind =
  let eng = Engine.create () in
  let total = n + if extra then 1 else 0 in
  let machines =
    Array.init total (fun i -> Mach.create eng ~id:i ~name:(Printf.sprintf "m%d" i) machine_config)
  in
  let topo = Topology.build eng ~machines () in
  let flips =
    Array.mapi (fun i _ -> Flip.Flip_iface.create machines.(i) topo.Topology.nics.(i)) machines
  in
  let worker_flips = Array.sub flips 0 n in
  let backends =
    match kind with
    | `Kernel -> Orca.Backend.kernel_stack worker_flips ()
    | `User -> Orca.Backend.user_stack worker_flips ()
    | `User_dedicated ->
      Orca.Backend.user_stack worker_flips ~dedicated_sequencer:flips.(n) ()
  in
  (eng, Orca.Rts.create_domain backends)

let run_app kind ~procs make =
  let extra = kind = `User_dedicated in
  let eng, dom = make_domain ~extra procs kind in
  let body, result = make dom in
  for rank = 0 to procs - 1 do
    ignore (Orca.Rts.spawn dom ~rank (Printf.sprintf "p%d" rank) body)
  done;
  Engine.run eng;
  (result (), eng, dom)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let impls = [ ("kernel", `Kernel); ("user", `User) ]

let app_cases name ~seq ~make ~procs =
  List.concat_map
    (fun (label, kind) ->
      List.map
        (fun p ->
          Alcotest.test_case (Printf.sprintf "%s P=%d [%s]" name p label) `Quick
            (fun () ->
              let result, _, _ = run_app kind ~procs:p make in
              check_int "matches sequential" seq result))
        procs)
    impls

let tsp_cases =
  let p = Apps.Tsp.test_params in
  app_cases "tsp" ~seq:(Apps.Tsp.sequential p)
    ~make:(fun dom -> Apps.Tsp.make dom p)
    ~procs:[ 1; 2; 4 ]

let asp_cases =
  let p = Apps.Asp.test_params in
  app_cases "asp" ~seq:(Apps.Asp.sequential p)
    ~make:(fun dom -> Apps.Asp.make dom p)
    ~procs:[ 1; 3; 4 ]

let ab_cases =
  let p = Apps.Ab.test_params in
  app_cases "ab" ~seq:(Apps.Ab.sequential p)
    ~make:(fun dom -> Apps.Ab.make dom p)
    ~procs:[ 1; 2; 4 ]

let rl_cases =
  let p = Apps.Rl.test_params in
  app_cases "rl" ~seq:(Apps.Rl.sequential p)
    ~make:(fun dom -> Apps.Rl.make dom p)
    ~procs:[ 1; 2; 4 ]

let sor_cases =
  let p = Apps.Sor.test_params in
  app_cases "sor" ~seq:(Apps.Sor.sequential p)
    ~make:(fun dom -> Apps.Sor.make dom p)
    ~procs:[ 1; 2; 4 ]

let leq_cases =
  let p = Apps.Leq.test_params in
  app_cases "leq" ~seq:(Apps.Leq.sequential p)
    ~make:(fun dom -> Apps.Leq.make dom p)
    ~procs:[ 1; 2; 4 ]

(* The dedicated-sequencer variant must also compute correct results. *)
let test_leq_dedicated () =
  let p = Apps.Leq.test_params in
  let result, _, _ = run_app `User_dedicated ~procs:2 (fun dom -> Apps.Leq.make dom p) in
  check_int "dedicated matches sequential" (Apps.Leq.sequential p) result

(* ------------------------------------------------------------------ *)
(* Kernel differentials.  The SOR half-sweep and RL update below are the
   closure-based kernels the apps used to run (every neighbour read went
   through a [get] closure, RL's through the polymorphic [min]); the
   direct-indexing kernels must compute exactly what they computed. *)

module Sor_ref = struct
  let initial_grid (p : Apps.Sor.params) =
    let rng = Sim.Rng.create ~seed:p.seed in
    Array.init p.h (fun i ->
        Array.init p.w (fun j ->
            if i = 0 then 100.
            else if i = p.h - 1 || j = 0 || j = p.w - 1 then 0.
            else Sim.Rng.float rng 1.0))

  let half_sweep ~(p : Apps.Sor.params) ~colour ~global_lo rows ~above ~below =
    let h = Array.length rows and w = p.w in
    let get i j =
      if i = -1 then if Array.length above = 0 then nan else above.(j)
      else if i = h then if Array.length below = 0 then nan else below.(j)
      else rows.(i).(j)
    in
    let maxdelta = ref 0. in
    for i = 0 to h - 1 do
      let gi = global_lo + i in
      if gi > 0 && gi < p.h - 1 then
        for j = 1 to w - 2 do
          if (gi + j) land 1 = colour then begin
            let old = rows.(i).(j) in
            let nbr = get (i - 1) j +. get (i + 1) j +. get i (j - 1) +. get i (j + 1) in
            let v = old +. (p.omega *. ((nbr /. 4.) -. old)) in
            rows.(i).(j) <- v;
            let d = Float.abs (v -. old) in
            if d > !maxdelta then maxdelta := d
          end
        done
    done;
    !maxdelta

  (* Checksum and iteration count, voting every 4 iterations. *)
  let sequential (p : Apps.Sor.params) =
    let grid = initial_grid p in
    let iters = ref 0 and unconverged = ref false and continue = ref true in
    while !continue do
      incr iters;
      let d0 = half_sweep ~p ~colour:0 ~global_lo:0 grid ~above:[||] ~below:[||] in
      let d1 = half_sweep ~p ~colour:1 ~global_lo:0 grid ~above:[||] ~below:[||] in
      if Float.max d0 d1 > p.epsilon then unconverged := true;
      if !iters mod 4 = 0 then begin
        continue := !unconverged;
        unconverged := false
      end
    done;
    let acc = ref 0. in
    Array.iter (fun row -> Array.iter (fun v -> acc := !acc +. v) row) grid;
    (int_of_float (!acc *. 10.), !iters)
end

module Rl_ref = struct
  let background = max_int

  let update_block ~w rows ~above ~below =
    let h = Array.length rows in
    let old = Array.map Array.copy rows in
    let get i j =
      if j < 0 || j >= w then background
      else if i = -1 then if Array.length above = 0 then background else above.(j)
      else if i = h then if Array.length below = 0 then background else below.(j)
      else old.(i).(j)
    in
    let changed = ref 0 in
    for i = 0 to h - 1 do
      for j = 0 to w - 1 do
        if old.(i).(j) <> background then begin
          let v =
            min
              (min (get (i - 1) j) (get (i + 1) j))
              (min (get i (j - 1)) (min (get i (j + 1)) old.(i).(j)))
          in
          if v < rows.(i).(j) then begin
            rows.(i).(j) <- v;
            incr changed
          end
        end
      done
    done;
    !changed

  let sequential (p : Apps.Rl.params) =
    let pixels =
      Apps.Workload.binary_grid ~seed:p.seed ~h:p.h ~w:p.w ~density_pct:p.density_pct
    in
    let labels =
      Array.init p.h (fun i ->
          Array.init p.w (fun j -> if pixels.(i).(j) then (i * p.w) + j else background))
    in
    let iters = ref 0 and since_vote = ref 0 and continue = ref true in
    while !continue do
      incr iters;
      since_vote := !since_vote + update_block ~w:p.w labels ~above:[||] ~below:[||];
      if !iters mod p.check_every = 0 then begin
        continue := !since_vote > 0;
        since_vote := 0
      end
    done;
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun a v -> if v = background then a else a + (v mod 100003)) acc row)
      0 labels
end

let gen_sor_params =
  QCheck.Gen.(
    map
      (fun (h, w, seed, (omega, epsilon)) ->
        { Apps.Sor.test_params with Apps.Sor.h; w; seed; omega; epsilon })
      (quad (int_range 3 16) (int_range 3 16) (int_range 0 1000)
         (pair (float_range 1.0 1.8) (float_range 1e-3 0.1))))

let gen_rl_params =
  QCheck.Gen.(
    map
      (fun (h, w, seed, (density_pct, check_every)) ->
        { Apps.Rl.test_params with Apps.Rl.h; w; seed; density_pct; check_every })
      (quad (int_range 1 16) (int_range 1 16) (int_range 0 1000)
         (pair (int_range 0 100) (int_range 1 4))))

let print_sor (p : Apps.Sor.params) =
  Printf.sprintf "h=%d w=%d seed=%d omega=%h epsilon=%h" p.h p.w p.seed p.omega p.epsilon

let print_rl (p : Apps.Rl.params) =
  Printf.sprintf "h=%d w=%d seed=%d density=%d check_every=%d" p.h p.w p.seed
    p.density_pct p.check_every

let prop_sor_matches_reference =
  QCheck.Test.make ~name:"sor sequential matches the closure-based kernel" ~count:200
    (QCheck.make ~print:print_sor gen_sor_params)
    (fun p -> Apps.Sor.sequential p = fst (Sor_ref.sequential p))

let prop_rl_matches_reference =
  QCheck.Test.make ~name:"rl sequential matches the polymorphic-min kernel" ~count:200
    (QCheck.make ~print:print_rl gen_rl_params)
    (fun p -> Apps.Rl.sequential p = Rl_ref.sequential p)

(* The kernels themselves, on one block of a larger grid: interior or
   edge blocks, each ghost row present or missing (SOR reads a missing one
   as [nan]), both colours.  Results are compared bit for bit. *)
type block_case = {
  bw : int;  (** width *)
  rows_above : int;  (** grid rows above the block *)
  bh : int;  (** block rows *)
  rows_below : int;
  drop_above : bool;  (** pass an empty ghost although rows lie above *)
  drop_below : bool;
  colour : int;
  bseed : int;
}

let gen_block_case =
  QCheck.Gen.(
    map
      (fun ((bw, rows_above, bh, rows_below), (drop_above, drop_below, colour, bseed)) ->
        { bw; rows_above; bh; rows_below; drop_above; drop_below; colour; bseed })
      (pair
         (quad (int_range 1 10) (int_range 0 3) (int_range 1 6) (int_range 0 3))
         (quad bool bool (int_range 0 1) (int_range 0 1000))))

let print_block_case c =
  Printf.sprintf "w=%d above=%d h=%d below=%d drop=%b/%b colour=%d seed=%d" c.bw
    c.rows_above c.bh c.rows_below c.drop_above c.drop_below c.colour c.bseed

(* The block and its two ghost rows, cells drawn by [cell]. *)
let block_of c cell =
  let rng = Sim.Rng.create ~seed:c.bseed in
  let row () = Array.init c.bw (fun _ -> cell rng) in
  let ghost present = if present then row () else [||] in
  let rows = Array.init c.bh (fun _ -> row ()) in
  let above = ghost (c.rows_above > 0 && not c.drop_above) in
  let below = ghost (c.rows_below > 0 && not c.drop_below) in
  (rows, above, below)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_sor_kernel =
  QCheck.Test.make ~name:"sor half-sweep matches the closure-based kernel" ~count:500
    (QCheck.make ~print:print_block_case gen_block_case)
    (fun c ->
      let p =
        { Apps.Sor.test_params with
          Apps.Sor.h = c.rows_above + c.bh + c.rows_below;
          w = c.bw;
          omega = 1.3 }
      in
      let rows, above, below = block_of c (fun rng -> Sim.Rng.float rng 100.) in
      let copy = Array.map Array.copy rows in
      let sweep f rows = f ~p ~colour:c.colour ~global_lo:c.rows_above rows ~above ~below in
      let d = sweep Apps.Sor.half_sweep rows and d_ref = sweep Sor_ref.half_sweep copy in
      same_bits d d_ref
      && Array.for_all2 (Array.for_all2 same_bits) rows copy)

let prop_rl_kernel =
  QCheck.Test.make ~name:"rl update matches the polymorphic-min kernel" ~count:500
    (QCheck.make ~print:print_block_case gen_block_case)
    (fun c ->
      let rows, above, below =
        block_of c (fun rng ->
            if Sim.Rng.int rng 3 = 0 then Apps.Rl.background else Sim.Rng.int rng 1000)
      in
      let copy = Array.map Array.copy rows in
      let changed = Apps.Rl.update_block ~w:c.bw rows ~above ~below in
      let changed_ref = Rl_ref.update_block ~w:c.bw copy ~above ~below in
      changed = changed_ref && rows = copy)

(* LEQ stops on its replicated convergence test: every rank broadcasts
   one slice per iteration, so the broadcast count is P times the
   sequential iteration count, on every stack and processor count. *)
let gen_leq_params =
  QCheck.Gen.(
    map
      (fun (n, seed, e) -> { Apps.Leq.test_params with Apps.Leq.n; seed; epsilon = 10. ** -.e })
      (triple (int_range 4 24) (int_range 0 1000) (float_range 1. 10.)))

let prop_leq_broadcasts =
  QCheck.Test.make ~name:"leq broadcasts P x the sequential iterations" ~count:8
    (QCheck.make
       ~print:(fun (p : Apps.Leq.params) ->
         Printf.sprintf "n=%d seed=%d epsilon=%h" p.n p.seed p.epsilon)
       gen_leq_params)
    (fun p ->
      let iters = Apps.Leq.iterations p and seq = Apps.Leq.sequential p in
      List.for_all
        (fun (_, kind) ->
          List.for_all
            (fun procs ->
              let result, _, dom = run_app kind ~procs (fun dom -> Apps.Leq.make dom p) in
              result = seq && Orca.Rts.broadcasts dom = procs * iters)
            [ 1; 2; 3; 4 ])
        impls)

(* The half-sweep reads neighbours without boxing: past the set-up of the
   grid, a solve allocates far fewer words than it updates cells.  With an
   infinite epsilon the solve stops at its first vote, so the difference
   between the two solves is the sweeps alone. *)
let test_sor_allocation () =
  let p = Apps.Sor.test_params in
  let short = { p with Apps.Sor.epsilon = infinity } in
  let words p =
    let before = Gc.minor_words () in
    ignore (Apps.Sor.sequential p);
    int_of_float (Gc.minor_words () -. before)
  in
  let iters p = snd (Sor_ref.sequential p) in
  let cells = (iters p - iters short) * (p.h - 2) * (p.w - 2) in
  let sweep_words = words p - words short in
  check_bool
    (Printf.sprintf "%d words for %d cell updates" sweep_words cells)
    true
    (cells > 0 && sweep_words * 4 < cells)

(* Simulated results at [test_params], P=4, pinned: the finish time (ns)
   and the engine's event count, which a changed iteration count or
   message pattern would move even with an unchanged checksum. *)
let pin_cases =
  let pins =
    [
      ("leq", "kernel", 1086700800, 19199);
      ("sor", "kernel", 1077492200, 16911);
      ("rl", "kernel", 942422200, 9933);
      ("leq", "user", 1371017200, 32357);
      ("sor", "user", 1175607400, 26554);
      ("rl", "user", 985193800, 15808);
    ]
  in
  let make = function
    | "leq" -> fun dom -> Apps.Leq.make dom Apps.Leq.test_params
    | "sor" -> fun dom -> Apps.Sor.make dom Apps.Sor.test_params
    | _ -> fun dom -> Apps.Rl.make dom Apps.Rl.test_params
  in
  List.map
    (fun (name, label, finish_ns, events) ->
      let kind = List.assoc label impls in
      Alcotest.test_case (Printf.sprintf "%s P=4 [%s] pinned" name label) `Quick (fun () ->
          let _, eng, _ = run_app kind ~procs:4 (make name) in
          check_int "finish time (ns)" finish_ns (Engine.now eng);
          check_int "events" events (Engine.events_executed eng)))
    pins

(* TSP parallel runs may find the optimum along different search paths but
   must end at the same optimal tour. *)
let test_tsp_superlinear_is_possible () =
  let p = Apps.Tsp.test_params in
  check_bool "optimum below greedy" true
    (Apps.Tsp.sequential p <= Apps.Tsp.jobs_of p * 100)

let test_decode_job_distinct () =
  let p = Apps.Tsp.test_params in
  let seen = Hashtbl.create 64 in
  let jobs = Apps.Tsp.jobs_of p in
  for _k = 0 to jobs - 1 do
    ()
  done;
  (* jobs_of counts (n-1)(n-2)... prefixes *)
  check_int "job count" ((p.Apps.Tsp.n_cities - 1) * (p.Apps.Tsp.n_cities - 2)) jobs;
  ignore seen

(* Workload generators are deterministic. *)
let test_workload_deterministic () =
  let a = Apps.Workload.dist_matrix ~seed:5 ~n:8 ~lo:1 ~hi:50 in
  let b = Apps.Workload.dist_matrix ~seed:5 ~n:8 ~lo:1 ~hi:50 in
  check_bool "same matrices" true (a = b);
  check_bool "symmetric" true
    (Array.for_all Fun.id (Array.init 8 (fun i -> Array.for_all Fun.id (Array.init 8 (fun j -> a.(i).(j) = a.(j).(i))))))

let test_block_range_covers () =
  List.iter
    (fun (n, parts) ->
      let total = ref 0 in
      for rank = 0 to parts - 1 do
        let lo, hi = Apps.Workload.block_range ~n ~parts ~rank in
        total := !total + (hi - lo);
        check_bool "ordered" true (lo <= hi)
      done;
      check_int (Printf.sprintf "covers n=%d parts=%d" n parts) n !total)
    [ (10, 3); (32, 32); (7, 8); (100, 16) ]

(* Exchange buffers respect iteration tags under both backends. *)
let test_exchange_orders_iterations () =
  List.iter
    (fun (_, kind) ->
      let eng, dom = make_domain 2 kind in
      let ex = Apps.Exchange.create dom ~name:"x" ~row_bytes:64 in
      let got = ref [] in
      ignore
        (Orca.Rts.spawn dom ~rank:0 "producer" (fun ~rank ->
             for iter = 1 to 3 do
               Apps.Exchange.put ex ~rank ~dir:`Down ~iter (Apps.Workload.Int_v (10 * iter))
             done));
      ignore
        (Orca.Rts.spawn dom ~rank:1 "consumer" (fun ~rank:_ ->
             (* Fetch out of order: tags must match regardless. *)
             List.iter
               (fun iter ->
                 match Apps.Exchange.get ex ~owner:0 ~dir:`Down ~iter with
                 | Apps.Workload.Int_v v -> got := v :: !got
                 | _ -> ())
               [ 2; 1; 3 ]));
      Engine.run eng;
      Alcotest.(check (list int)) "tagged gets" [ 20; 10; 30 ] (List.rev !got))
    impls

let test_convergence_votes () =
  List.iter
    (fun (_, kind) ->
      let eng, dom = make_domain 3 kind in
      let conv = Apps.Convergence.make dom ~name:"c" in
      let outcomes = ref [] in
      for rank = 0 to 2 do
        ignore
          (Orca.Rts.spawn dom ~rank "voter" (fun ~rank ->
               (* Round 1: only rank 1 changed -> continue.  Round 2:
                  nobody changed -> stop. *)
               let r1 = Apps.Convergence.vote conv ~iter:1 ~changed:(rank = 1) in
               let r2 = Apps.Convergence.vote conv ~iter:2 ~changed:false in
               outcomes := (rank, r1, r2) :: !outcomes))
      done;
      Engine.run eng;
      List.iter
        (fun (_, r1, r2) ->
          check_bool "round1 continues" true r1;
          check_bool "round2 stops" false r2)
        !outcomes;
      check_int "all voted" 3 (List.length !outcomes))
    impls

let () =
  Alcotest.run "apps"
    [
      ("tsp", tsp_cases @ [ Alcotest.test_case "jobs" `Quick test_decode_job_distinct;
                            Alcotest.test_case "bound sanity" `Quick test_tsp_superlinear_is_possible ]);
      ("asp", asp_cases);
      ("ab", ab_cases);
      ("rl", rl_cases);
      ("sor", sor_cases);
      ("leq", leq_cases @ [ Alcotest.test_case "dedicated" `Quick test_leq_dedicated ]);
      ( "kernels",
        pin_cases
        @ [ Alcotest.test_case "sor allocation" `Quick test_sor_allocation ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_sor_kernel;
              prop_rl_kernel;
              prop_sor_matches_reference;
              prop_rl_matches_reference;
              prop_leq_broadcasts;
            ] );
      ( "infra",
        [
          Alcotest.test_case "workload deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "block range" `Quick test_block_range_covers;
          Alcotest.test_case "exchange tags" `Quick test_exchange_orders_iterations;
          Alcotest.test_case "convergence votes" `Quick test_convergence_votes;
        ] );
    ]
