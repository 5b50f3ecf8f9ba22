type config = {
  byte_time : Sim.Time.span;
  framing_bytes : int;
  min_payload : int;
}

let default_config = { byte_time = Sim.Time.ns 800; framing_bytes = 38; min_payload = 46 }

type verdict =
  | Pass
  | Drop
  | Corrupt
  | Duplicate
  | Delay of Sim.Time.span

type attachment = {
  aid : int;
  aname : string;
  accepts : Frame.t -> bool;
  deliver : Frame.t -> unit;
}

type t = {
  eng : Sim.Engine.t;
  sname : string;
  config : config;
  mutable attachments : attachment list;
  mutable next_aid : int;
  queue : (attachment * Frame.t) Queue.t;
  mutable transmitting : bool;
  (* Frame currently on the wire and whether it gets delivered; lets the
     wire-completion event be one preallocated closure instead of two fresh
     ones per frame (the busiest allocation site in the simulation). *)
  mutable cur : (attachment * Frame.t) option;
  mutable cur_deliver : bool;
  mutable on_wire_done : unit -> unit;
  mutable bytes : int;
  mutable frames : int;
  mutable busy_ns : Sim.Time.span;
  mutable fault : (Frame.t -> verdict) option;
  mutable dropped : int;
  mutable corrupted : int;
  mutable duplicated : int;
  mutable delayed : int;
}

let attach t ~name ~accepts deliver =
  let a = { aid = t.next_aid; aname = name; accepts; deliver } in
  t.next_aid <- t.next_aid + 1;
  t.attachments <- t.attachments @ [ a ];
  a

let wire_time t (frame : Frame.t) =
  let payload = max frame.Frame.bytes t.config.min_payload in
  (payload + t.config.framing_bytes) * t.config.byte_time

(* A frame killed on the wire is charged in full to Fault_wire under the
   layer of its topmost protocol header, so injected loss stays visible in
   the layer × cause accounting (instead of the silent vanish the header
   charges alone would leave). *)
let top_layer (frame : Frame.t) =
  match List.rev frame.Frame.hdr with (ly, _) :: _ -> ly | [] -> Obs.Layer.Nic

let deliver_all t from frame =
  List.iter
    (fun a -> if a.aid <> from.aid && a.accepts frame then a.deliver frame)
    t.attachments

let rec start_next t =
  match Queue.take_opt t.queue with
  | None ->
    t.transmitting <- false;
    t.cur <- None
  | Some (from, frame) as cur ->
    t.transmitting <- true;
    t.cur <- cur;
    let wt = wire_time t frame in
    t.bytes <- t.bytes + frame.Frame.bytes;
    t.frames <- t.frames + 1;
    t.busy_ns <- t.busy_ns + wt;
    let verdict = match t.fault with Some f -> f frame | None -> Pass in
    let killed = match verdict with Drop | Corrupt -> true | _ -> false in
    (match verdict with
     | Drop -> t.dropped <- t.dropped + 1
     | Corrupt -> t.corrupted <- t.corrupted + 1
     | Duplicate ->
       t.duplicated <- t.duplicated + 1;
       Queue.push (from, frame) t.queue
     | Delay _ -> t.delayed <- t.delayed + 1
     | Pass -> ());
    if Obs.Recorder.recording () then begin
      if killed then
        Obs.Recorder.charge ~layer:(top_layer frame) ~cause:Obs.Cause.Fault_wire wt
      else
        (* Wire occupancy attributable to protocol headers (not CPU time). *)
        List.iter
          (fun (ly, b) ->
            Obs.Recorder.charge ~layer:ly ~cause:Obs.Cause.Header_wire
              (b * t.config.byte_time))
          frame.Frame.hdr
    end;
    (* Delayed frames free the medium at the normal time but reach the
       receivers late, so frames queued behind them overtake: reordering. *)
    (match verdict with
     | Delay extra ->
       ignore
         (Sim.Engine.after t.eng (wt + extra) (fun () ->
              deliver_all t from frame))
     | _ -> ());
    t.cur_deliver <-
      (match verdict with Pass | Duplicate -> true | Drop | Corrupt | Delay _ -> false);
    ignore (Sim.Engine.after t.eng wt t.on_wire_done)

and wire_done t =
  (match t.cur with
   | Some (from, frame) when t.cur_deliver -> deliver_all t from frame
   | _ -> ());
  start_next t

let create eng ?(config = default_config) sname =
  let t =
    {
      eng;
      sname;
      config;
      attachments = [];
      next_aid = 0;
      queue = Queue.create ();
      transmitting = false;
      cur = None;
      cur_deliver = false;
      on_wire_done = ignore;
      bytes = 0;
      frames = 0;
      busy_ns = 0;
      fault = None;
      dropped = 0;
      corrupted = 0;
      duplicated = 0;
      delayed = 0;
    }
  in
  t.on_wire_done <- (fun () -> wire_done t);
  t

let transmit t ~from frame =
  Queue.push (from, frame) t.queue;
  if not t.transmitting then start_next t

let set_fault t f = t.fault <- f

let set_fault_injector t f =
  t.fault <-
    (match f with
     | None -> None
     | Some f -> Some (fun frame -> if f frame then Drop else Pass))

let frames_dropped t = t.dropped
let frames_corrupted t = t.corrupted
let frames_duplicated t = t.duplicated
let frames_delayed t = t.delayed
let busy t = t.transmitting
let queue_length t = Queue.length t.queue
let bytes_carried t = t.bytes
let frames_carried t = t.frames
let busy_time t = t.busy_ns
let name t = t.sname
