module Thread = Machine.Thread

type params = {
  n : int;
  seed : int;
  epsilon : float;
  cell_cost : Sim.Time.span;
}

let default_params =
  { n = 640; seed = 23; epsilon = 1e-8; cell_cost = Sim.Time.us_f 0.95 }

let test_params = { n = 24; seed = 23; epsilon = 1e-6; cell_cost = Sim.Time.ns 100 }

let system p = Workload.diag_dominant ~seed:p.seed ~n:p.n

(* One Jacobi update of rows [lo, hi): x'_i = (b_i - sum_{j<>i} a_ij x_j) / a_ii.
   Returns the max component change. *)
let jacobi_rows a b x x' ~lo ~hi =
  let n = Array.length b in
  let maxd = ref 0. in
  for i = lo to hi - 1 do
    let s = ref 0. in
    let row = a.(i) in
    for j = 0 to n - 1 do
      if j <> i then s := !s +. (row.(j) *. x.(j))
    done;
    let v = (b.(i) -. !s) /. row.(i) in
    x'.(i) <- v;
    let d = Float.abs (v -. x.(i)) in
    if d > !maxd then maxd := d
  done;
  !maxd

let checksum x =
  let acc = ref 0. in
  Array.iter (fun v -> acc := !acc +. v) x;
  int_of_float (!acc *. 1000.)

let run_sequential p =
  let a, b = system p in
  let n = p.n in
  let x = ref (Array.make n 0.) and x' = ref (Array.make n 0.) in
  let iters = ref 0 in
  let continue = ref true in
  while !continue do
    incr iters;
    let d = jacobi_rows a b !x !x' ~lo:0 ~hi:n in
    let tmp = !x in
    x := !x';
    x' := tmp;
    continue := d > p.epsilon
  done;
  (checksum !x, !iters)

let sequential p = fst (run_sequential p)
let iterations p = snd (run_sequential p)

(* Blit every rank's slice of the next iterate into [x]; returns the max
   component change, measured before each component is overwritten. *)
let assemble ~n ~parts x slices =
  let rec go maxd = function
    | [] -> maxd
    | (r, slice) :: rest ->
      let slo, _shi = Workload.block_range ~n ~parts ~rank:r in
      let m = ref maxd in
      for k = 0 to Array.length slice - 1 do
        let d = Float.abs (slice.(k) -. x.(slo + k)) in
        if d > !m then m := d
      done;
      Array.blit slice 0 x slo (Array.length slice);
      go !m rest
  in
  go 0. slices

(* Replicated board collecting each iteration's slices. *)
type board = {
  slices : (int, (int * float array) list ref) Hashtbl.t; (* iter -> (rank, slice) *)
}

let make dom p =
  let parts = Orca.Rts.size dom in
  let a, b = system p in
  let n = p.n in
  let board =
    Orca.Rts.declare dom ~name:"leq.board" ~placement:Orca.Rts.Replicated
      ~init:(fun ~rank:_ -> { slices = Hashtbl.create 8 })
  in
  let slice_bytes = ((n + parts - 1) / parts * 8) + 8 in
  let add_slice =
    Orca.Rts.defop board ~name:"add" ~kind:`Write
      ~arg_size:(fun _ -> slice_bytes)
      (fun st arg ->
        (match arg with
         | Workload.Tagged (iter, Workload.Frow (rank, slice)) ->
           let cell =
             match Hashtbl.find_opt st.slices iter with
             | Some l -> l
             | None ->
               let l = ref [] in
               Hashtbl.add st.slices iter l;
               l
           in
           cell := (rank, slice) :: !cell
         | _ -> ());
        Sim.Payload.Empty)
  in
  let await_all =
    Orca.Rts.defop board ~name:"await" ~kind:`Read
      ~guard:(fun st arg ->
        match arg with
        | Workload.Int_v iter -> (
            match Hashtbl.find_opt st.slices iter with
            | Some l -> List.length !l = parts
            | None -> false)
        | _ -> false)
      ~res_size:(fun _ -> 8)
      (fun st arg ->
        match arg with
        | Workload.Int_v iter ->
          let l = Hashtbl.find st.slices iter in
          (* One process per rank consumes each iteration exactly once, so
             older slices can be dropped to bound replica memory. *)
          Hashtbl.remove st.slices (iter - 2);
          Workload.Slices !l
        | _ -> Sim.Payload.Empty)
  in
  let bodies_x = Array.init parts (fun _ -> Array.make n 0.) in
  let body ~rank =
    let lo, hi = Workload.block_range ~n ~parts ~rank in
    let x = bodies_x.(rank) in
    let x' = Array.make n 0. in
    (* The sequential reference's convergence test, replicated: every rank
       assembles the same new vector from the same slices, so every rank
       sees the sequential max change and stops after the same iteration. *)
    let iter = ref 0 and continue = ref true in
    while !continue do
      incr iter;
      let iter = !iter in
      ignore (jacobi_rows a b x x' ~lo ~hi);
      Thread.compute ((hi - lo) * n * p.cell_cost);
      ignore
        (Orca.Rts.invoke add_slice
           (Workload.Tagged (iter, Workload.Frow (rank, Array.sub x' lo (hi - lo)))));
      (* Assemble the new x from everyone's slices, once they are all
         here, measuring each component's change before overwriting it. *)
      match Orca.Rts.invoke await_all (Workload.Int_v iter) with
      | Workload.Slices l -> continue := assemble ~n ~parts x l > p.epsilon
      | _ -> assert false
    done
  in
  let result () = checksum bodies_x.(0) in
  (body, result)
