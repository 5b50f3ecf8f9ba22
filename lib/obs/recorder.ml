(* The recorder is a domain-local, optional sink for probes compiled into
   the simulator.  When none is installed every probe is a no-op, so an
   uninstrumented run is bit-identical to the pre-obs simulator: probes never
   charge simulated time, they only observe it. *)

type span = {
  sp_track : string;
  sp_layer : Layer.t;
  sp_name : string;
  sp_begin : int;
  mutable sp_end : int;  (* -1 while open *)
  sp_depth : int;
}

type t = {
  mutable spans_rev : span list;
  mutable n_spans : int;
  open_stacks : (string, span list) Hashtbl.t;
  mutable tracks_rev : string list;  (* insertion order, for determinism *)
  ledger : int array array;  (* Layer.count x Cause.count, nanoseconds *)
  stats : Sim.Stats.t;
  mutable last_time : int;
  (* Built once and reused by every span: a fiber's ["name#id"] track
     (fiber ids are unique on the domain the recorder is installed on) and
     each layer's ["span.<layer>.<name>"] stat keys, by span name. *)
  fiber_tracks : (int, string) Hashtbl.t;
  span_keys : (string, string) Hashtbl.t array;
}

let create () =
  {
    spans_rev = [];
    n_spans = 0;
    open_stacks = Hashtbl.create 32;
    tracks_rev = [];
    ledger = Array.init Layer.count (fun _ -> Array.make Cause.count 0);
    stats = Sim.Stats.create ();
    last_time = 0;
    fiber_tracks = Hashtbl.create 32;
    span_keys = Array.init Layer.count (fun _ -> Hashtbl.create 8);
  }

(* The installed recorder is domain-local: parallel experiment jobs each
   install their own recorder on their own domain without interference, and
   the probes' fast path stays a single DLS load + match. *)
let current_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let active () = !(Domain.DLS.get current_key)
let recording () = match active () with None -> false | Some _ -> true
let install t = Domain.DLS.get current_key := Some t
let uninstall () = Domain.DLS.get current_key := None

(* ---------- probes ---------- *)

let touch t now = if now > t.last_time then t.last_time <- now

let charge ~layer ~cause ns =
  match active () with
  | None -> ()
  | Some t ->
    (* Negative amounts are refunds (e.g. a context switch abandoned by a
       preemption): they keep the ledger equal to CPU busy time. *)
    if ns <> 0 then begin
      let row = t.ledger.(Layer.index layer) in
      let j = Cause.index cause in
      row.(j) <- row.(j) + ns
    end

let count name n =
  match active () with
  | None -> ()
  | Some t -> Sim.Stats.add t.stats name n

let observe name v =
  match active () with
  | None -> ()
  | Some t -> Sim.Stats.record t.stats name v

let open_span t ~track ~layer ~name ~now =
  touch t now;
  let stack =
    match Hashtbl.find t.open_stacks track with
    | stack -> stack
    | exception Not_found ->
      t.tracks_rev <- track :: t.tracks_rev;
      []
  in
  let sp =
    {
      sp_track = track;
      sp_layer = layer;
      sp_name = name;
      sp_begin = now;
      sp_end = -1;
      sp_depth = List.length stack;
    }
  in
  Hashtbl.replace t.open_stacks track (sp :: stack);
  t.spans_rev <- sp :: t.spans_rev;
  t.n_spans <- t.n_spans + 1

let span_key t layer name =
  let keys = t.span_keys.(Layer.index layer) in
  match Hashtbl.find keys name with
  | key -> key
  | exception Not_found ->
    let key = Printf.sprintf "span.%s.%s" (Layer.to_string layer) name in
    Hashtbl.add keys name key;
    key

let close_span t ~track ~now =
  touch t now;
  match Hashtbl.find t.open_stacks track with
  | [] | (exception Not_found) -> ()
  | sp :: rest ->
    sp.sp_end <- now;
    Hashtbl.replace t.open_stacks track rest;
    Sim.Stats.record t.stats
      (span_key t sp.sp_layer sp.sp_name)
      (float_of_int (now - sp.sp_begin) /. 1_000.)

let span_begin ~track ~layer ~name ~now =
  match active () with None -> () | Some t -> open_span t ~track ~layer ~name ~now

let span_end ~track ~now =
  match active () with None -> () | Some t -> close_span t ~track ~now

(* ---------- fiber-aware span helpers ---------- *)

let fiber_track t =
  match Sim.Fiber.self_opt () with
  | None -> "events"
  | Some f -> (
    let id = Sim.Fiber.id f in
    match Hashtbl.find t.fiber_tracks id with
    | track -> track
    | exception Not_found ->
      let track = Printf.sprintf "%s#%d" (Sim.Fiber.name f) id in
      Hashtbl.add t.fiber_tracks id track;
      track)

let enter eng layer name =
  match active () with
  | None -> ()
  | Some t -> open_span t ~track:(fiber_track t) ~layer ~name ~now:(Sim.Engine.now eng)

let leave eng =
  match active () with
  | None -> ()
  | Some t -> close_span t ~track:(fiber_track t) ~now:(Sim.Engine.now eng)

let with_span eng layer name f =
  match active () with
  | None -> f ()
  | Some t -> (
    let track = fiber_track t in
    open_span t ~track ~layer ~name ~now:(Sim.Engine.now eng);
    match f () with
    | v ->
      close_span t ~track ~now:(Sim.Engine.now eng);
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_span t ~track ~now:(Sim.Engine.now eng);
      Printexc.raise_with_backtrace e bt)

(* ---------- accessors ---------- *)

let ledger_ns t ~layer ~cause = t.ledger.(Layer.index layer).(Cause.index cause)

let cause_ns t cause =
  let j = Cause.index cause in
  Array.fold_left (fun acc row -> acc + row.(j)) 0 t.ledger

let layer_ns t layer =
  let row = t.ledger.(Layer.index layer) in
  let acc = ref 0 in
  List.iter
    (fun c -> if Cause.is_cpu c then acc := !acc + row.(Cause.index c))
    Cause.all;
  !acc

let cpu_ns t =
  List.fold_left
    (fun acc c -> if Cause.is_cpu c then acc + cause_ns t c else acc)
    0 Cause.all

let spans t = List.rev t.spans_rev
let n_spans t = t.n_spans

let open_spans t =
  Hashtbl.fold (fun _ stack acc -> acc + List.length stack) t.open_stacks 0

let tracks t = List.rev t.tracks_rev
let stats t = t.stats
let last_time t = t.last_time
