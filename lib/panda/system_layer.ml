module Thread = Machine.Thread
module Mach = Machine.Mach
module Sync = Machine.Sync

type config = {
  pan_header : int;
  frag_bytes : int;
  frag_cost : Sim.Time.span;
  copy_byte : Sim.Time.span;
  recv_fixed : Sim.Time.span;
  upcall_depth : int;
  send_depth : int;
  user_flip_extra : Sim.Time.span;
  single_frag : bool;
  sg_copy : bool;
  rx_fastpath : bool;
}

let default_config =
  {
    pan_header = 16;
    frag_bytes = 1400;
    frag_cost = Sim.Time.us 20;
    copy_byte = Sim.Time.ns 50;
    recv_fixed = Sim.Time.us 25;
    upcall_depth = 3;
    send_depth = 3;
    user_flip_extra = Sim.Time.us 15;
    single_frag = false;
    sg_copy = false;
    rx_fastpath = false;
  }

(* A Panda-level fragment travelling as one FLIP message. *)
type Sim.Payload.t += Pan of Flip.Fragment.t

(* Receive-queue entries.  [Raw] is the baseline path: the daemon fetches
   the packet with a system call and reassembles under a lock.  [Fast] is
   the optimized single-fragment fast path: the interrupt handler already
   "reassembled" the (one-fragment) message, so the daemon only dispatches
   the upcall. *)
type rx_item =
  | Raw of Flip.Fragment.t
  | Fast of { f_src : Flip.Address.t; f_total : int; f_bytes : int; f_user : Sim.Payload.t }

type t = {
  sname : string;
  flip : Flip.Flip_iface.t;
  cfg : config;
  addr : Flip.Address.t;
  rx_q : rx_item Queue.t;
  mutable rx_waiter : (unit -> unit) option;
  mutable daemon : Thread.t option;
  qmutex : Sync.Mutex.t;
  reasm : Flip.Reassembly.t;
  (* FLIP-level reassembly: a Panda fragment travels as one FLIP message,
     which FLIP may itself have fragmented (when fragment + Panda header
     exceeds the FLIP MTU).  The network message must be reassembled
     before its payload is interpreted as a Panda fragment — otherwise
     every FLIP packet of one Panda fragment would inject a copy. *)
  net_reasm : Flip.Reassembly.t;
  mutable handlers : (src:Flip.Address.t -> size:int -> Sim.Payload.t -> bool) list;
  mutable next_msg : int;
  mutable n_packets : int;
  mutable n_msgs_in : int;
  mutable n_msgs_out : int;
  mutable n_fast : int;
}

let address t = t.addr
let machine t = Flip.Flip_iface.machine t.flip
let flip t = t.flip
let config t = t.cfg
let packets_received t = t.n_packets
let messages_received t = t.n_msgs_in
let messages_sent t = t.n_msgs_out
let fastpath_deliveries t = t.n_fast

(* With single fragmentation, Panda sizes its fragments so that fragment +
   Panda header exactly fills one FLIP packet: FLIP never re-fragments. *)
let frag_payload t =
  if t.cfg.single_frag then (Flip.Flip_iface.config t.flip).Flip.Flip_iface.mtu - t.cfg.pan_header
  else t.cfg.frag_bytes

(* Bytes the CPU actually traverses per fragment: with scatter-gather I/O
   only the (gathered) Panda header is built; the payload stays in place. *)
let copied_bytes t frag_bytes = if t.cfg.sg_copy then t.cfg.pan_header else frag_bytes

let add_handler t h = t.handlers <- t.handlers @ [ h ]

let unwrap (flip_frag : Flip.Fragment.t) =
  match flip_frag.Flip.Fragment.payload with
  | Pan pan_frag -> Some pan_frag
  | _ -> None

let wake_daemon ~direct t =
  match t.rx_waiter with
  | Some wake ->
    t.rx_waiter <- None;
    (* On the fast path the FLIP receive code dispatches the daemon
       upcall-style: the daemon continues out of the interrupt without a
       scheduling handoff, so no context switch is charged. *)
    if direct then Option.iter Thread.mark_direct_wake t.daemon;
    wake ()
  | None -> ()

(* Interrupt context: queue the packet and wake the daemon. *)
let inject t pan_frag =
  if t.cfg.rx_fastpath && pan_frag.Flip.Fragment.count = 1 then begin
    (* Single-fragment fast path: the message is complete on arrival, so
       the interrupt handler hands it to the upcall dispatch directly
       (free bookkeeping, exactly like the kernel stack's input routines);
       the receive-daemon handoff and its locking are skipped.  Every
       arriving copy is delivered, matching what [Flip.Reassembly.add]
       does for completed single-fragment messages. *)
    Queue.push
      (Fast
         { f_src = pan_frag.Flip.Fragment.src;
           f_total = pan_frag.Flip.Fragment.total;
           f_bytes = pan_frag.Flip.Fragment.bytes;
           f_user = pan_frag.Flip.Fragment.payload })
      t.rx_q;
    wake_daemon ~direct:true t
  end
  else begin
    Queue.push (Raw pan_frag) t.rx_q;
    wake_daemon ~direct:false t
  end

let upcall t ~src ~size payload =
  Thread.call_frames ~layer:Obs.Layer.Panda_sys t.cfg.upcall_depth;
  let rec try_handlers = function
    | [] -> ()
    | h :: rest -> if not (h ~src ~size payload) then try_handlers rest
  in
  try_handlers t.handlers;
  Thread.ret_frames ~layer:Obs.Layer.Panda_sys t.cfg.upcall_depth

(* One receive system call per packet, plus the untuned user-level FLIP
   interface overhead.  The fast path pays this too: the upcall still
   crosses the user/kernel boundary (this PR does not model user-level
   network access; that stays a separate ablation). *)
let recv_crossing t =
  let extra = t.cfg.user_flip_extra in
  Obs.Recorder.charge ~layer:Obs.Layer.Flip ~cause:Obs.Cause.Uk_crossing extra;
  Thread.syscall ~layer:Obs.Layer.Panda_sys ~kernel_work:extra ~itemized:extra ()

(* Per-packet receive processing: fixed work plus the copy up. *)
let recv_work t bytes =
  let copy = copied_bytes t bytes * t.cfg.copy_byte in
  Obs.Recorder.charge ~layer:Obs.Layer.Panda_sys ~cause:Obs.Cause.Copy copy;
  Thread.compute ~layer:Obs.Layer.Panda_sys ~itemized:copy (t.cfg.recv_fixed + copy)

let rec daemon_loop t =
  (match Queue.take_opt t.rx_q with
   | None ->
     Thread.suspend (fun _ resume -> t.rx_waiter <- Some resume);
     ()
   | Some (Raw frag) ->
     t.n_packets <- t.n_packets + 1;
     Obs.Recorder.with_span (Mach.engine (machine t)) Obs.Layer.Panda_sys "rx"
       (fun () ->
         recv_crossing t;
         recv_work t frag.Flip.Fragment.bytes;
         (* Shared protocol state is guarded by user-space locks; this is
            where the paper's 7x lock traffic comes from. *)
         Sync.Mutex.lock t.qmutex;
         let completed = Flip.Reassembly.add t.reasm frag in
         Sync.Mutex.unlock t.qmutex;
         match completed with
         | Some (src, total, payload) ->
           t.n_msgs_in <- t.n_msgs_in + 1;
           upcall t ~src ~size:total payload
         | None -> ())
   | Some (Fast { f_src; f_total; f_bytes; f_user }) ->
     t.n_packets <- t.n_packets + 1;
     t.n_fast <- t.n_fast + 1;
     Obs.Recorder.with_span (Mach.engine (machine t)) Obs.Layer.Panda_sys "rx-fast"
       (fun () ->
         recv_crossing t;
         recv_work t f_bytes;
         (* No reassembly, no reassembly lock: the message completed in
            the interrupt handler. *)
         t.n_msgs_in <- t.n_msgs_in + 1;
         upcall t ~src:f_src ~size:f_total f_user));
  daemon_loop t

(* Sending: Panda fragments the message itself (the duplicated portable
   fragmentation layer), then issues one FLIP system call per fragment. *)
let alloc_tag t =
  t.next_msg <- t.next_msg + 1;
  t.next_msg

let fragments ?tag t ~dst ~size payload =
  let msg_id = match tag with Some id -> id | None -> alloc_tag t in
  Flip.Fragment.split ~src:t.addr ~dst ~msg_id ~mtu:(frag_payload t) ~size payload

let wire_bytes t frag = t.cfg.pan_header + frag.Flip.Fragment.bytes

(* The upper protocol's header rides in the first Panda fragment; the Panda
   fragmentation header itself is deliberately left unattributed (it exists
   on both stacks' wire formats the paper compares against). *)
let upper_for hdr (frag : Flip.Fragment.t) =
  match hdr with Some _ when frag.Flip.Fragment.index = 0 -> hdr | _ -> None

let transmit_one ?hdr t ~target frag =
  let size = wire_bytes t frag in
  let hdr = upper_for hdr frag in
  match target with
  | `Unicast dst ->
    Flip.Flip_iface.unicast ?hdr t.flip ~src:t.addr ~dst ~size (Pan frag)
  | `Mcast group ->
    Flip.Flip_iface.multicast ?hdr t.flip ~src:t.addr ~group ~size (Pan frag)

let send_from_thread ?tag ?hdr t ~target ~size payload =
  t.n_msgs_out <- t.n_msgs_out + 1;
  Obs.Recorder.with_span (Mach.engine (machine t)) Obs.Layer.Panda_sys "send"
    (fun () ->
      Thread.call_frames ~layer:Obs.Layer.Panda_sys t.cfg.send_depth;
      Sync.Mutex.lock t.qmutex;
      let frags =
        fragments ?tag t
          ~dst:(match target with `Unicast d -> d | `Mcast g -> g)
          ~size payload
      in
      Sync.Mutex.unlock t.qmutex;
      (* With single fragmentation there is only one fragmentation layer
         left doing real work (FLIP's, inside out_packet_cost): the
         duplicated Panda pass is gone along with its per-message charge. *)
      if not t.cfg.single_frag then
        Thread.compute ~layer:Obs.Layer.Panda_sys ~cause:Obs.Cause.Fragmentation
          t.cfg.frag_cost;
      List.iter
        (fun frag ->
          let copy = copied_bytes t frag.Flip.Fragment.bytes * t.cfg.copy_byte in
          let out = Flip.Flip_iface.send_cost t.flip ~size:(wire_bytes t frag) in
          let work = t.cfg.user_flip_extra + copy + out in
          Obs.Recorder.charge ~layer:Obs.Layer.Flip ~cause:Obs.Cause.Uk_crossing
            t.cfg.user_flip_extra;
          Obs.Recorder.charge ~layer:Obs.Layer.Panda_sys ~cause:Obs.Cause.Copy copy;
          Obs.Recorder.charge ~layer:Obs.Layer.Flip ~cause:Obs.Cause.Proto_proc out;
          Thread.syscall ~layer:Obs.Layer.Panda_sys ~kernel_work:work ~itemized:work ();
          transmit_one ?hdr t ~target frag)
        frags;
      Thread.ret_frames ~layer:Obs.Layer.Panda_sys t.cfg.send_depth)

let send ?tag ?hdr t ~dst ~size payload =
  send_from_thread ?tag ?hdr t ~target:(`Unicast dst) ~size payload

let mcast ?tag ?hdr t ~group ~size payload =
  send_from_thread ?tag ?hdr t ~target:(`Mcast group) ~size payload

let send_from_daemon = send
let mcast_from_daemon = mcast

let transmit_from_interrupt ?tag ?hdr t ~target ~size payload =
  t.n_msgs_out <- t.n_msgs_out + 1;
  let dst = match target with `Unicast d -> d | `Mcast g -> g in
  let frags = fragments ?tag t ~dst ~size payload in
  let cost =
    List.fold_left
      (fun acc frag -> acc + Flip.Flip_iface.send_cost t.flip ~size:(wire_bytes t frag))
      0 frags
  in
  Obs.Recorder.charge ~layer:Obs.Layer.Flip ~cause:Obs.Cause.Proto_proc cost;
  Mach.interrupt (machine t) ~layer:Obs.Layer.Panda_sys ~itemized:cost
    ~name:"panda.retrans" ~cost (fun () ->
      List.iter (fun frag -> transmit_one ?hdr t ~target frag) frags)

let send_from_interrupt ?tag ?hdr t ~dst ~size payload =
  transmit_from_interrupt ?tag ?hdr t ~target:(`Unicast dst) ~size payload

let mcast_from_interrupt ?tag ?hdr t ~group ~size payload =
  transmit_from_interrupt ?tag ?hdr t ~target:(`Mcast group) ~size payload

let wake_blocked ?thread t resume =
  match thread with
  | Some th when t.cfg.rx_fastpath ->
    (* Upcall-style hand-off: the upcall resumes the blocked caller as a
       user-level thread switch, so the daemon pays no kernel signalling
       crossing.  The woken thread is still scheduled normally (it keeps
       its one context switch — the single switch of the fast path). *)
    ignore th;
    resume ()
  | _ ->
    if Thread.in_thread () then
      Thread.syscall ~layer:Obs.Layer.Panda_sys ();
    resume ()

let create ?(config = default_config) ~name flip =
  let mach = Flip.Flip_iface.machine flip in
  let t =
    {
      sname = name;
      flip;
      cfg = config;
      addr = Flip.Address.fresh_point (Machine.Mach.engine mach);
      rx_q = Queue.create ();
      rx_waiter = None;
      daemon = None;
      qmutex = Sync.Mutex.create mach;
      reasm = Flip.Reassembly.create ();
      net_reasm = Flip.Reassembly.create ();
      handlers = [];
      next_msg = 0;
      n_packets = 0;
      n_msgs_in = 0;
      n_msgs_out = 0;
      n_fast = 0;
    }
  in
  Flip.Flip_iface.register flip t.addr (fun flip_frag ->
      match Flip.Reassembly.add t.net_reasm flip_frag with
      | Some (_, _, payload) -> (
          match payload with
          | Pan pan_frag -> inject t pan_frag
          | _ -> ())
      | None -> ());
  t.daemon <-
    Some (Thread.spawn mach ~prio:Thread.Daemon (name ^ ".daemon") (fun () -> daemon_loop t));
  t
