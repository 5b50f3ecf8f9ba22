(* Host-time spans the benchmark records around its own calls into the
   simulator's layers (set-up, run, finalize/audit).  Kept in memory and
   printed when the traced run ends. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  t0 : float;
  mutable t1 : float;
}

type t = { mutable spans : span list; mutable stack : int list; mutable next : int }

let create () = { spans = []; stack = []; next = 0 }

let with_span t name f =
  match t with
  | None -> f ()
  | Some t ->
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    let sp = { id = t.next; parent; name; t0 = Unix.gettimeofday (); t1 = 0. } in
    t.next <- t.next + 1;
    t.spans <- sp :: t.spans;
    t.stack <- sp.id :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        sp.t1 <- Unix.gettimeofday ();
        t.stack <- List.tl t.stack)
      f

(* One line per span in begin order: duration, self time (duration minus
   the part its child spans cover) and the parent's name. *)
let print oc t =
  let spans = List.rev t.spans in
  let dur s = s.t1 -. s.t0 in
  let name_of id =
    match List.find_opt (fun s -> s.id = id) spans with Some s -> s.name | None -> "-"
  in
  List.iter
    (fun s ->
      let children =
        List.fold_left (fun acc c -> if c.parent = s.id then acc +. dur c else acc) 0. spans
      in
      Printf.fprintf oc "span %-34s %10.3f ms  self %10.3f ms  parent %s\n" s.name
        (1e3 *. dur s)
        (1e3 *. (dur s -. children))
        (name_of s.parent))
    spans
