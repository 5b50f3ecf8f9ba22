module Thread = Machine.Thread

type params = {
  h : int;
  w : int;
  seed : int;
  epsilon : float;
  omega : float;
  cell_cost : Sim.Time.span;
}

let default_params =
  { h = 128; w = 128; seed = 5; epsilon = 0.05; omega = 1.4; cell_cost = Sim.Time.us_f 16.5 }

let test_params =
  { h = 12; w = 12; seed = 5; epsilon = 0.01; omega = 1.4; cell_cost = Sim.Time.ns 100 }

(* Fixed hot top edge, cold elsewhere; interior starts at random noise so
   different seeds give different problems. *)
let initial_grid p =
  let rng = Sim.Rng.create ~seed:p.seed in
  Array.init p.h (fun i ->
      Array.init p.w (fun j ->
          if i = 0 then 100.
          else if i = p.h - 1 || j = 0 || j = p.w - 1 then 0.
          else Sim.Rng.float rng 1.0))

(* One red/black half-sweep on rows [lo, hi) of a block; ghost rows supply
   the missing neighbours (an empty ghost reads as [nan]).  Returns the max
   residual.  Rows are indexed directly, up and down picked once per row,
   so no neighbour read boxes a float. *)
let half_sweep ~p ~colour ~global_lo rows ~above ~below =
  let h = Array.length rows and w = p.w in
  let ghost g = if Array.length g = 0 then Array.make w nan else g in
  let maxdelta = ref 0. in
  for i = 0 to h - 1 do
    let gi = global_lo + i in
    if gi > 0 && gi < p.h - 1 then begin
      let up = if i = 0 then ghost above else rows.(i - 1) in
      let down = if i = h - 1 then ghost below else rows.(i + 1) in
      let row = rows.(i) in
      let j = ref (if (gi + 1) land 1 = colour then 1 else 2) in
      while !j <= w - 2 do
        let c = !j in
        let old = row.(c) in
        let nbr = up.(c) +. down.(c) +. row.(c - 1) +. row.(c + 1) in
        let v = old +. (p.omega *. ((nbr /. 4.) -. old)) in
        row.(c) <- v;
        let d = Float.abs (v -. old) in
        if d > !maxdelta then maxdelta := d;
        j := c + 2
      done
    end
  done;
  !maxdelta

let checksum grid =
  let acc = ref 0. in
  Array.iter (fun row -> Array.iter (fun v -> acc := !acc +. v) row) grid;
  int_of_float (!acc *. 10.)

(* Convergence is checked every [vote_interval] iterations (the parallel
   version votes at that granularity, and the sequential reference must
   follow the same rule to converge after the same iteration count). *)
let vote_interval = 4

let run_sequential p =
  let grid = initial_grid p in
  let iters = ref 0 in
  let unconverged = ref false in
  let continue = ref true in
  while !continue do
    incr iters;
    let d0 = half_sweep ~p ~colour:0 ~global_lo:0 grid ~above:[||] ~below:[||] in
    let d1 = half_sweep ~p ~colour:1 ~global_lo:0 grid ~above:[||] ~below:[||] in
    if Float.max d0 d1 > p.epsilon then unconverged := true;
    if !iters mod vote_interval = 0 then begin
      continue := !unconverged;
      unconverged := false
    end
  done;
  (checksum grid, !iters)

let sequential p = fst (run_sequential p)

let make dom p =
  let parts = Orca.Rts.size dom in
  let full = initial_grid p in
  let blocks =
    Array.init parts (fun rank ->
        let lo, hi = Workload.block_range ~n:p.h ~parts ~rank in
        (lo, hi, Array.init (hi - lo) (fun i -> full.(lo + i))))
  in
  let ex = Exchange.create dom ~name:"sor" ~row_bytes:(8 * p.w) in
  let conv = Convergence.make dom ~name:"sor.conv" in
  let body ~rank =
    let lo, _hi, mine = blocks.(rank) in
    let h = Array.length mine in
    let fetch_ghosts phase =
      let iter_tag = phase in
      if rank > 0 then
        Exchange.put ex ~rank ~dir:`Up ~iter:iter_tag
          (Workload.Frow (iter_tag, Array.copy mine.(0)));
      if rank < parts - 1 then
        Exchange.put ex ~rank ~dir:`Down ~iter:iter_tag
          (Workload.Frow (iter_tag, Array.copy mine.(h - 1)));
      let above =
        if rank = 0 then [||]
        else
          match Exchange.get ex ~owner:(rank - 1) ~dir:`Down ~iter:iter_tag with
          | Workload.Frow (_, row) -> row
          | _ -> [||]
      in
      let below =
        if rank = parts - 1 then [||]
        else
          match Exchange.get ex ~owner:(rank + 1) ~dir:`Up ~iter:iter_tag with
          | Workload.Frow (_, row) -> row
          | _ -> [||]
      in
      (above, below)
    in
    let iter = ref 0 in
    let continue_ = ref true in
    let unconverged_since_vote = ref false in
    while !continue_ do
      incr iter;
      let iter = !iter in
      (* Red half-sweep, then black: each needs fresh boundary rows. *)
      let above, below = fetch_ghosts (2 * iter) in
      let d0 = half_sweep ~p ~colour:0 ~global_lo:lo mine ~above ~below in
      Thread.compute (h * p.w * p.cell_cost / 2);
      let above, below = fetch_ghosts ((2 * iter) + 1) in
      let d1 = half_sweep ~p ~colour:1 ~global_lo:lo mine ~above ~below in
      Thread.compute (h * p.w * p.cell_cost / 2);
      if Float.max d0 d1 > p.epsilon then unconverged_since_vote := true;
      if iter mod vote_interval = 0 then begin
        continue_ := Convergence.vote conv ~iter ~changed:!unconverged_since_vote;
        unconverged_since_vote := false
      end
    done
  in
  let result () =
    (* Sum floats across blocks in grid order and round once, exactly as
       the sequential checksum does. *)
    let acc = ref 0. in
    Array.iter
      (fun (_, _, mine) ->
        Array.iter (fun row -> Array.iter (fun v -> acc := !acc +. v) row) mine)
      blocks;
    int_of_float (!acc *. 10.)
  in
  (body, result)
