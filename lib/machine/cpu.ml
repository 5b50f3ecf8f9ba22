type switch_costs = {
  warm : Sim.Time.span;
  cold_idle : Sim.Time.span;
  cold_preempt : Sim.Time.span;
}

(* A job waiting in a ready queue.  The running job lives in the [r_]
   fields of [t] instead, so a job that starts at once (an idle CPU, or a
   preemption) allocates nothing. *)
type job = {
  key : int;
  prio : int;
  label : string;
  layer : Obs.Layer.t;
  needs_switch : bool;
  remaining : Sim.Time.span;
  on_complete : unit -> unit;
}

type t = {
  eng : Sim.Engine.t;
  costs : switch_costs;
  track : string;
  (* One FIFO per priority level; level 0 = interrupts. *)
  ready : job Queue.t array;
  mutable last : int;
  mutable busy_ns : Sim.Time.span;
  mutable busy_intr_ns : Sim.Time.span;
  mutable n_switches : int;
  mutable running : bool;
  mutable r_key : int;
  mutable r_prio : int;
  mutable r_label : string;
  mutable r_layer : Obs.Layer.t;
  mutable r_remaining : Sim.Time.span;
  mutable r_on_complete : unit -> unit;
  mutable r_started : Sim.Time.t;
  mutable r_switch : Sim.Time.span;
  mutable r_handle : Sim.Engine.handle;
  (* Every completion event runs this one closure. *)
  mutable on_tick : unit -> unit;
}

let n_prios = 3
let interrupt_key = -1
let idle_key = -2

let busy t = t.running
let last_key t = t.last
let busy_time t = t.busy_ns
let busy_interrupt_time t = t.busy_intr_ns
let switches t = t.n_switches

let accrue t now =
  let elapsed = now - t.r_started in
  t.busy_ns <- t.busy_ns + elapsed;
  if t.r_key = interrupt_key then t.busy_intr_ns <- t.busy_intr_ns + elapsed

let queue_length t =
  Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.ready

let queues_empty t =
  Queue.is_empty t.ready.(0) && Queue.is_empty t.ready.(1) && Queue.is_empty t.ready.(2)

let switch_cost t ~preempting ~needs_switch key =
  if key = interrupt_key then 0
  else if key = t.last then
    if needs_switch then t.costs.warm else 0
  else if preempting then t.costs.cold_preempt
  else t.costs.cold_idle

let span_name t = if t.r_key = interrupt_key then "irq:" ^ t.r_label else t.r_label

(* Start the job loaded in the [r_] fields. *)
let start t ~preempting ~needs_switch =
  let switch = switch_cost t ~preempting ~needs_switch t.r_key in
  if t.r_key <> interrupt_key then begin
    if switch > 0 then t.n_switches <- t.n_switches + 1;
    t.last <- t.r_key
  end;
  (* Each switch-in charges its switch cost; requested work is charged by
     the semantic submitter, so ledger CPU totals match [busy_time]. *)
  Obs.Recorder.charge ~layer:t.r_layer ~cause:Obs.Cause.Ctx_switch switch;
  let now = Sim.Engine.now t.eng in
  if Obs.Recorder.recording () then
    Obs.Recorder.span_begin ~track:t.track ~layer:t.r_layer ~name:(span_name t) ~now;
  t.running <- true;
  t.r_started <- now;
  t.r_switch <- switch;
  t.r_handle <- Sim.Engine.after t.eng (switch + t.r_remaining) t.on_tick

let load t ~key ~prio ~label ~layer ~remaining on_complete =
  t.r_key <- key;
  t.r_prio <- prio;
  t.r_label <- label;
  t.r_layer <- layer;
  t.r_remaining <- remaining;
  t.r_on_complete <- on_complete

(* Start the head of the highest-priority non-empty queue. *)
let rec pick t i =
  if i < n_prios then
    let q = t.ready.(i) in
    if Queue.is_empty q then pick t (i + 1)
    else begin
      let job = Queue.take q in
      load t ~key:job.key ~prio:job.prio ~label:job.label ~layer:job.layer
        ~remaining:job.remaining job.on_complete;
      start t ~preempting:false ~needs_switch:job.needs_switch
    end

let dispatch t = if not t.running then pick t 0

let complete t =
  let now = Sim.Engine.now t.eng in
  accrue t now;
  Obs.Recorder.span_end ~track:t.track ~now;
  t.running <- false;
  let on_complete = t.r_on_complete in
  t.r_on_complete <- ignore;
  on_complete ();
  dispatch t

let create ?(name = "cpu") eng costs =
  let t =
    {
      eng;
      costs;
      track = "cpu:" ^ name;
      ready = Array.init n_prios (fun _ -> Queue.create ());
      last = idle_key;
      busy_ns = 0;
      busy_intr_ns = 0;
      n_switches = 0;
      running = false;
      r_key = idle_key;
      r_prio = 0;
      r_label = "";
      r_layer = Obs.Layer.App;
      r_remaining = 0;
      r_on_complete = ignore;
      r_started = 0;
      r_switch = 0;
      r_handle = Sim.Engine.no_handle;
      on_tick = ignore;
    }
  in
  t.on_tick <- (fun () -> complete t);
  t

let preempt t =
  let now = Sim.Engine.now t.eng in
  Sim.Engine.cancel t.eng t.r_handle;
  accrue t now;
  Obs.Recorder.span_end ~track:t.track ~now;
  (* The switch cost was charged in full at switch-in, but a preemption
     arriving mid-switch abandons the un-elapsed tail: that time never
     runs (the restart pays its own switch, if any), so refund it to keep
     the ledger equal to busy time. *)
  let unrun_switch = max 0 (t.r_switch - (now - t.r_started)) in
  Obs.Recorder.charge ~layer:t.r_layer ~cause:Obs.Cause.Ctx_switch (-unrun_switch);
  (* Time spent switching in does not count as job progress. *)
  let elapsed_work = max 0 (now - t.r_started - t.r_switch) in
  (* Requeued with [needs_switch = false]: a job restarted after a
     preemption must not pay its wakeup switch twice. *)
  let job =
    { key = t.r_key; prio = t.r_prio; label = t.r_label; layer = t.r_layer;
      needs_switch = false; remaining = max 0 (t.r_remaining - elapsed_work);
      on_complete = t.r_on_complete }
  in
  t.running <- false;
  (* Put it at the front of its own priority class so it resumes before
     later arrivals of the same priority. *)
  let q = t.ready.(job.prio) in
  let rest = Queue.copy q in
  Queue.clear q;
  Queue.push job q;
  Queue.transfer rest q

let submit t ~key ~prio ~needs_switch ~label ~layer ~cost on_complete =
  assert (prio >= 0 && prio < n_prios);
  if t.running && prio < t.r_prio then begin
    preempt t;
    load t ~key ~prio ~label ~layer ~remaining:cost on_complete;
    start t ~preempting:true ~needs_switch
  end
  else if (not t.running) && queues_empty t then begin
    (* Only with every queue empty: a submit from inside [on_complete] may
       find older jobs waiting, and they go first. *)
    load t ~key ~prio ~label ~layer ~remaining:cost on_complete;
    start t ~preempting:false ~needs_switch
  end
  else begin
    Queue.push
      { key; prio; label; layer; needs_switch; remaining = cost; on_complete }
      t.ready.(prio);
    dispatch t
  end
