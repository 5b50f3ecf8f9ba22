type config = {
  os_header : int;
  post_cost : Sim.Time.span;
  completion_cost : Sim.Time.span;
  op_fixed : Sim.Time.span;
  op_word : Sim.Time.span;
  retrans_timeout : Sim.Time.span;
  max_retries : int;
  cas_cache : int;
}

let default_config =
  {
    os_header = 28;
    post_cost = Sim.Time.us 8;
    completion_cost = Sim.Time.us 6;
    op_fixed = Sim.Time.us 5;
    op_word = Sim.Time.ns 10;
    retrans_timeout = Sim.Time.ms 200;
    max_retries = 10;
    cas_cache = 4096;
  }

type op =
  | Read of { words : int }
  | Write of { values : int array }
  | Cas of { expected : int; desired : int }

type result = Values of int array | Written | Cas_was of int

type event =
  | Posted of { op_id : int; op : op }
  | Completed of { op_id : int; result : result; retries : int }
  | Failed of { op_id : int }
  | Target_exec of { src : Flip.Address.t; op_id : int; op : op; fresh : bool }

type Sim.Payload.t +=
  | Os_req of { op_id : int; rkey : int; off : int; op : op }
  | Os_rsp of { op_id : int; result : result }

type pending = {
  p_id : int;
  p_thread : Machine.Thread.t;
  mutable p_result : result option;
  mutable p_failed : bool;
  mutable p_resume : (unit -> unit) option;
  mutable p_timer : Sim.Engine.handle option;
  mutable p_tries : int;
}

type t = {
  flip : Flip.Flip_iface.t;
  cfg : config;
  addr : Flip.Address.t;
  reass : Flip.Reassembly.t;
  regions : (int, Region.t) Hashtbl.t;
  pending : (int, pending) Hashtbl.t;
  (* At-most-once cas: remembered results keyed by (initiator, op_id),
     bounded in insertion order like Amoeba's reply cache. *)
  cas_seen : (Flip.Address.t * int, int) Hashtbl.t;
  cas_order : (Flip.Address.t * int) Queue.t;
  mutable next_op : int;
  mutable n_posted : int;
  mutable n_target : int;
  mutable n_retrans : int;
  mutable n_replays : int;
  mutable observer : (event -> unit) option;
}

let addr t = t.addr
let machine t = Flip.Flip_iface.machine t.flip
let config t = t.cfg
let posted t = t.n_posted
let target_ops t = t.n_target
let retransmissions t = t.n_retrans
let cas_replays t = t.n_replays
let eng t = Machine.Mach.engine (machine t)

let set_observer t f =
  match t.observer with
  | None -> t.observer <- Some f
  | Some g ->
    t.observer <-
      Some
        (fun e ->
          g e;
          f e)

let emit t e = match t.observer with None -> () | Some f -> f e

let register_region t r =
  if Hashtbl.mem t.regions r.Region.key then
    invalid_arg "Rnic.register_region: key already registered";
  Hashtbl.replace t.regions r.Region.key r

let region t ~key =
  match Hashtbl.find_opt t.regions key with
  | Some r -> r
  | None -> invalid_arg "Rnic.region: unknown key"

(* Data bytes carried beyond the one-sided header (8-byte words). *)
let req_bytes = function
  | Read _ -> 0
  | Write { values } -> 8 * Array.length values
  | Cas _ -> 16

let rsp_bytes = function
  | Values v -> 8 * Array.length v
  | Written -> 0
  | Cas_was _ -> 8

(* Words the target touches: drives the per-word interrupt-context cost. *)
let op_words = function
  | Read { words } -> words
  | Write { values } -> Array.length values
  | Cas _ -> 1

let os_hdr t = (Obs.Layer.Onesided, t.cfg.os_header)

let bound_cas t =
  while Queue.length t.cas_order > t.cfg.cas_cache do
    Hashtbl.remove t.cas_seen (Queue.pop t.cas_order)
  done

(* Target side: runs from the nested one-sided interrupt. *)
let execute t ~src ~op_id ~rkey ~off op =
  let r = region t ~key:rkey in
  let result =
    match op with
    | Read { words } -> Values (Array.sub r.Region.data off words)
    | Write { values } ->
      Array.blit values 0 r.Region.data off (Array.length values);
      Written
    | Cas { expected; desired } ->
      let key = (src, op_id) in
      (match Hashtbl.find_opt t.cas_seen key with
       | Some old ->
         (* Retransmitted cas: replay the remembered outcome; executing
            again could swap twice.  Reads and writes are idempotent and
            never reach this path. *)
         t.n_replays <- t.n_replays + 1;
         emit t (Target_exec { src; op_id; op; fresh = false });
         Cas_was old
       | None ->
         let old = r.Region.data.(off) in
         if old = expected then r.Region.data.(off) <- desired;
         Hashtbl.replace t.cas_seen key old;
         Queue.push key t.cas_order;
         bound_cas t;
         t.n_target <- t.n_target + 1;
         emit t (Target_exec { src; op_id; op; fresh = true });
         Cas_was old)
  in
  (match op with
   | Cas _ -> ()
   | _ ->
     t.n_target <- t.n_target + 1;
     emit t (Target_exec { src; op_id; op; fresh = true }));
  let msg_id = Flip.Flip_iface.alloc_msg_id t.flip in
  Flip.Flip_iface.unicast ~msg_id ~hdr:(os_hdr t) t.flip ~src:t.addr ~dst:src
    ~size:(t.cfg.os_header + rsp_bytes result)
    (Os_rsp { op_id; result })

let handle_request t ~src ~op_id ~rkey ~off op =
  (* The op completes in a nested interrupt on the target: entry cost to
     (Onesided, Uk_crossing) as for any interrupt, the op itself — data
     access plus emitting the reply — to (Onesided, Offload).  No thread
     is scheduled; this is the whole server-side data path. *)
  let cost = t.cfg.op_fixed + (op_words op * t.cfg.op_word) in
  Obs.Recorder.charge ~layer:Obs.Layer.Onesided ~cause:Obs.Cause.Offload cost;
  Machine.Mach.interrupt (machine t) ~layer:Obs.Layer.Onesided ~itemized:cost
    ~name:"os.op" ~cost
    (fun () -> execute t ~src ~op_id ~rkey ~off op)

let wake p =
  match p.p_resume with
  | Some resume ->
    p.p_resume <- None;
    resume ()
  | None -> ()

let handle_response t ~op_id result =
  match Hashtbl.find_opt t.pending op_id with
  | Some p when p.p_result = None && not p.p_failed ->
    (match p.p_timer with
     | Some h -> Sim.Engine.cancel (eng t) h
     | None -> ());
    p.p_result <- Some result;
    (* The completion is delivered straight into the blocked initiator —
       no scheduler invocation, as for Amoeba's in-kernel reply. *)
    Machine.Thread.mark_direct_wake p.p_thread;
    wake p
  | Some _ | None -> () (* late duplicate after completion *)

let on_fragment t frag =
  match Flip.Reassembly.add t.reass frag with
  | None -> ()
  | Some (src, _total, payload) ->
    (match payload with
     | Os_req { op_id; rkey; off; op } ->
       handle_request t ~src ~op_id ~rkey ~off op
     | Os_rsp { op_id; result } -> handle_response t ~op_id result
     | _ -> ())

let create ?(config = default_config) flip =
  let t =
    {
      flip;
      cfg = config;
      addr = Flip.Address.fresh_point (Machine.Mach.engine (Flip.Flip_iface.machine flip));
      reass = Flip.Reassembly.create ();
      regions = Hashtbl.create 8;
      pending = Hashtbl.create 32;
      cas_seen = Hashtbl.create 64;
      cas_order = Queue.create ();
      next_op = 0;
      n_posted = 0;
      n_target = 0;
      n_retrans = 0;
      n_replays = 0;
      observer = None;
    }
  in
  Flip.Flip_iface.register flip t.addr (on_fragment t);
  t

let send_request t ~msg_id ~dst ~op_id ~rkey ~off op =
  Flip.Flip_iface.unicast ~msg_id ~hdr:(os_hdr t) t.flip ~src:t.addr ~dst
    ~size:(t.cfg.os_header + req_bytes op)
    (Os_req { op_id; rkey; off; op })

(* NIC-autonomous retransmission: the timer and the resend charge no host
   CPU — the adapter retries on its own, which is what lets the initiator
   thread stay blocked at zero cost. *)
let rec arm_timer t p ~msg_id ~dst ~rkey ~off op =
  p.p_timer <-
    Some
      (Sim.Engine.after (eng t) t.cfg.retrans_timeout (fun () ->
           if p.p_result = None && not p.p_failed then
             if p.p_tries >= t.cfg.max_retries then begin
               p.p_failed <- true;
               emit t (Failed { op_id = p.p_id });
               wake p
             end
             else begin
               p.p_tries <- p.p_tries + 1;
               t.n_retrans <- t.n_retrans + 1;
               send_request t ~msg_id ~dst ~op_id:p.p_id ~rkey ~off op;
               arm_timer t p ~msg_id ~dst ~rkey ~off op
             end))

let perform t ~dst ~rkey ~off op =
  let thread = Machine.Thread.self () in
  t.next_op <- t.next_op + 1;
  let op_id = t.next_op in
  t.n_posted <- t.n_posted + 1;
  emit t (Posted { op_id; op });
  let p =
    {
      p_id = op_id;
      p_thread = thread;
      p_result = None;
      p_failed = false;
      p_resume = None;
      p_timer = None;
      p_tries = 0;
    }
  in
  Hashtbl.replace t.pending op_id p;
  (* Posting is pure user-level work against the mapped adapter: no
     syscall, no kernel output path — just the post descriptor write. *)
  Machine.Thread.compute ~layer:Obs.Layer.Onesided ~cause:Obs.Cause.Proto_proc
    t.cfg.post_cost;
  let msg_id = Flip.Flip_iface.alloc_msg_id t.flip in
  send_request t ~msg_id ~dst ~op_id ~rkey ~off op;
  arm_timer t p ~msg_id ~dst ~rkey ~off op;
  (* The completion may already be in (loopback or a preempting receive
     interrupt during the post). *)
  if p.p_result = None && not p.p_failed then
    Machine.Thread.suspend (fun _ resume -> p.p_resume <- Some resume);
  (match p.p_timer with
   | Some h -> Sim.Engine.cancel (eng t) h
   | None -> ());
  Hashtbl.remove t.pending op_id;
  match p.p_result with
  | Some result ->
    Machine.Thread.compute ~layer:Obs.Layer.Onesided
      ~cause:Obs.Cause.Proto_proc t.cfg.completion_cost;
    emit t (Completed { op_id; result; retries = p.p_tries });
    result
  | None ->
    Fmt.failwith "onesided: op %d to %a timed out after %d retries" op_id
      Flip.Address.pp dst p.p_tries

let read t ~dst ~rkey ~off ~words =
  match perform t ~dst ~rkey ~off (Read { words }) with
  | Values v -> v
  | Written | Cas_was _ -> assert false

let write t ~dst ~rkey ~off values =
  match perform t ~dst ~rkey ~off (Write { values }) with
  | Written -> ()
  | Values _ | Cas_was _ -> assert false

let cas t ~dst ~rkey ~off ~expected ~desired =
  match perform t ~dst ~rkey ~off (Cas { expected; desired }) with
  | Cas_was old -> old
  | Values _ | Written -> assert false
