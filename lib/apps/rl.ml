module Thread = Machine.Thread

type params = {
  h : int;
  w : int;
  seed : int;
  density_pct : int;
  scan_cost : Sim.Time.span;  (** per cell visited *)
  change_cost : Sim.Time.span;  (** extra work per label actually updated *)
  check_every : int;  (** iterations between convergence votes *)
}

let default_params =
  { h = 256; w = 512; seed = 11; density_pct = 65; scan_cost = Sim.Time.us 2;
    change_cost = Sim.Time.us 30; check_every = 8 }

let test_params =
  { h = 16; w = 16; seed = 11; density_pct = 60; scan_cost = Sim.Time.ns 200;
    change_cost = Sim.Time.ns 200; check_every = 2 }

let background = max_int

let initial_labels p =
  let pixels = Workload.binary_grid ~seed:p.seed ~h:p.h ~w:p.w ~density_pct:p.density_pct in
  Array.init p.h (fun i ->
      Array.init p.w (fun j -> if pixels.(i).(j) then (i * p.w) + j else background))

(* One synchronous update of [rows], using [above] and [below] as ghost
   rows (empty array = image border).  Returns the number of labels that
   changed — the data-dependent part of the work. *)
let update_block ~w rows ~above ~below =
  let h = Array.length rows in
  let old = Array.map Array.copy rows in
  let ghost g = if Array.length g = 0 then Array.make w background else g in
  let min (a : int) b = if a < b then a else b in
  let changed = ref 0 in
  for i = 0 to h - 1 do
    let up = if i = 0 then ghost above else old.(i - 1) in
    let down = if i = h - 1 then ghost below else old.(i + 1) in
    let o = old.(i) and row = rows.(i) in
    for j = 0 to w - 1 do
      let c = o.(j) in
      if c <> background then begin
        let left = if j = 0 then background else o.(j - 1) in
        let right = if j = w - 1 then background else o.(j + 1) in
        let v = min (min up.(j) down.(j)) (min left (min right c)) in
        if v < row.(j) then begin
          row.(j) <- v;
          incr changed
        end
      end
    done
  done;
  !changed

let checksum labels =
  Array.fold_left
    (fun acc row ->
      Array.fold_left (fun a v -> if v = background then a else a + (v mod 100003)) acc row)
    0 labels

let sequential p =
  let labels = initial_labels p in
  let iters = ref 0 in
  let since_vote = ref 0 in
  let continue = ref true in
  while !continue do
    incr iters;
    since_vote := !since_vote + update_block ~w:p.w labels ~above:[||] ~below:[||];
    if !iters mod p.check_every = 0 then begin
      continue := !since_vote > 0;
      since_vote := 0
    end
  done;
  checksum labels

let make dom p =
  let parts = Orca.Rts.size dom in
  let full = initial_labels p in
  let blocks =
    Array.init parts (fun rank ->
        let lo, hi = Workload.block_range ~n:p.h ~parts ~rank in
        (lo, hi, Array.init (hi - lo) (fun i -> full.(lo + i))))
  in
  let ex = Exchange.create dom ~name:"rl" ~row_bytes:(4 * p.w) in
  let conv = Convergence.make dom ~name:"rl.conv" in
  let body ~rank =
    let _lo, _hi, mine = blocks.(rank) in
    let h = Array.length mine in
    let iter = ref 0 in
    let continue_ = ref true in
    let changed_since_vote = ref 0 in
    while !continue_ do
      incr iter;
      let iter = !iter in
      (* Publish boundary rows for the neighbours, then fetch theirs:
         remote guarded BufGet operations. *)
      if rank > 0 then
        Exchange.put ex ~rank ~dir:`Up ~iter (Workload.Row (iter, Array.copy mine.(0)));
      if rank < parts - 1 then
        Exchange.put ex ~rank ~dir:`Down ~iter
          (Workload.Row (iter, Array.copy mine.(h - 1)));
      let above =
        if rank = 0 then [||]
        else
          match Exchange.get ex ~owner:(rank - 1) ~dir:`Down ~iter with
          | Workload.Row (_, row) -> row
          | _ -> [||]
      in
      let below =
        if rank = parts - 1 then [||]
        else
          match Exchange.get ex ~owner:(rank + 1) ~dir:`Up ~iter with
          | Workload.Row (_, row) -> row
          | _ -> [||]
      in
      let changed = update_block ~w:p.w mine ~above ~below in
      Thread.compute ((h * p.w * p.scan_cost) + (changed * p.change_cost));
      changed_since_vote := !changed_since_vote + changed;
      (* Orca-style distributed termination detection, every few
         iterations to bound its broadcast load. *)
      if iter mod p.check_every = 0 then begin
        continue_ := Convergence.vote conv ~iter ~changed:(!changed_since_vote > 0);
        changed_since_vote := 0
      end
    done
  in
  let result () =
    Array.fold_left (fun acc (_, _, mine) -> acc + checksum mine) 0 blocks
  in
  (body, result)
