(* Tests for the domain pool and for the tentpole guarantee: experiment
   fan-out is deterministic — the same results in the same order whether
   cells run sequentially or on a pool of domains. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pool semantics *)

let test_map_preserves_order () =
  Exec.Pool.with_pool ~jobs:4 (fun p ->
      let xs = List.init 100 Fun.id in
      let ys = Exec.Pool.map_list p (fun i -> i * i) xs in
      Alcotest.(check (list int)) "squares in order" (List.map (fun i -> i * i) xs) ys)

let test_map_array_empty_and_single () =
  Exec.Pool.with_pool ~jobs:3 (fun p ->
      check_int "empty" 0 (Array.length (Exec.Pool.map_array p succ [||]));
      Alcotest.(check (array int)) "single" [| 8 |] (Exec.Pool.map_array p succ [| 7 |]))

let test_sequential_pool () =
  (* jobs=1 must not spawn domains and must behave like List.map. *)
  let p = Exec.Pool.create ~jobs:1 in
  let seen = ref [] in
  let ys =
    Exec.Pool.map_list p
      (fun i ->
        seen := i :: !seen;
        i + 1)
      [ 1; 2; 3 ]
  in
  Exec.Pool.shutdown p;
  Alcotest.(check (list int)) "results" [ 2; 3; 4 ] ys;
  (* sequential path evaluates strictly in input order *)
  Alcotest.(check (list int)) "evaluation order" [ 1; 2; 3 ] (List.rev !seen)

exception Boom of int

let test_exception_propagates () =
  Exec.Pool.with_pool ~jobs:4 (fun p ->
      match
        Exec.Pool.map_list p
          (fun i -> if i = 5 then raise (Boom i) else i)
          (List.init 10 Fun.id)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 5 -> ())

let test_pool_reuse () =
  Exec.Pool.with_pool ~jobs:3 (fun p ->
      for round = 1 to 5 do
        let n = 20 * round in
        let ys = Exec.Pool.map_list p (fun i -> i + round) (List.init n Fun.id) in
        check_int "length" n (List.length ys);
        check_bool "values" true (List.for_all2 (fun x y -> y = x + round) (List.init n Fun.id) ys)
      done)

(* ------------------------------------------------------------------ *)
(* Determinism of the experiment fan-out *)

(* Outcomes carry only immutable scalars, so structural equality is the
   right notion; comparing the pretty-printed strings too pins down the
   bit-identity of what the bench harness actually prints. *)
let outcome_strings outcomes =
  List.map (Format.asprintf "%a" Core.Runner.pp_outcome) outcomes

let table3_subset ?pool () =
  Core.Experiments.table3 ~ctx:{ Core.Ctx.default with pool } ~app_names:[ "sor" ] ~procs:[ 1; 4 ] ()

let test_table3_j1_vs_j2 () =
  let seq = table3_subset () in
  let par = Exec.Pool.with_pool ~jobs:2 (fun p -> table3_subset ~pool:p ()) in
  check_bool "outcome lists equal" true (seq = par);
  Alcotest.(check (list string))
    "printed forms equal" (outcome_strings seq) (outcome_strings par);
  check_bool "checksums valid" true (List.for_all (fun o -> o.Core.Runner.o_valid) seq)

let test_parallel_run_repeatable () =
  let a = Exec.Pool.with_pool ~jobs:3 (fun p -> table3_subset ~pool:p ()) in
  let b = Exec.Pool.with_pool ~jobs:3 (fun p -> table3_subset ~pool:p ()) in
  check_bool "two parallel runs identical" true (a = b)

let test_table1_point_j1_vs_j2 () =
  let seq = Core.Experiments.table1 ~sizes:[ 0 ] () in
  let par =
    Exec.Pool.with_pool ~jobs:2 (fun p -> Core.Experiments.table1 ~ctx:{ Core.Ctx.default with pool = Some p } ~sizes:[ 0 ] ())
  in
  check_bool "latency rows bit-identical" true (seq = par)

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
          Alcotest.test_case "empty and single" `Quick test_map_array_empty_and_single;
          Alcotest.test_case "sequential pool" `Quick test_sequential_pool;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "table3 -j1 vs -j2" `Quick test_table3_j1_vs_j2;
          Alcotest.test_case "parallel runs repeatable" `Quick test_parallel_run_repeatable;
          Alcotest.test_case "table1 point -j1 vs -j2" `Quick test_table1_point_j1_vs_j2;
        ] );
    ]
