type prio = Daemon | Normal

type t = {
  mach : Mach.t;
  tname : string;
  tprio : prio;
  mutable fib : Sim.Fiber.t option;
  (* True when the thread has blocked since it last held the CPU, so its
     next compute owes a scheduler invocation (context switch). *)
  mutable blocked_since_run : bool;
  regwin : Regwin.t;
}

(* A thread rides in its fiber's local slot, so finding the running thread
   is two loads, and a finished simulation holds no global reference. *)
type Sim.Fiber.local += Thread_of of t

let self_slot () =
  match Sim.Fiber.self_opt () with Some f -> Sim.Fiber.local f | None -> Sim.Fiber.Unset

let self () =
  match self_slot () with
  | Thread_of t -> t
  | _ -> invalid_arg "Thread.self: not inside a machine thread"

let in_thread () = match self_slot () with Thread_of _ -> true | _ -> false

let machine t = t.mach
let name t = t.tname
let prio t = t.tprio

let fiber t =
  match t.fib with
  | Some f -> f
  | None -> invalid_arg "Thread.fiber: not yet started"

let prio_level = function Daemon -> 1 | Normal -> 2

let spawn mach ?(prio = Normal) tname body =
  let windows = (Mach.config mach).Mach.reg_windows in
  let t =
    { mach; tname; tprio = prio; fib = None; blocked_since_run = true;
      regwin = Regwin.create ~windows }
  in
  let fib =
    Sim.Fiber.spawn (Mach.engine mach) ~name:(Mach.name mach ^ "/" ^ tname) (fun () -> body ())
  in
  t.fib <- Some fib;
  Sim.Fiber.set_local fib (Thread_of t);
  t

let alive t = match t.fib with Some f -> Sim.Fiber.alive f | None -> false
let kill t = match t.fib with Some f -> Sim.Fiber.kill f | None -> ()
let join t = match t.fib with Some f -> Sim.Fiber.join f | None -> ()

(* One CPU submission of [d] work for the calling thread.  All semantic
   entry points funnel through here so a logical operation with several
   attributed parts still costs exactly one CPU job (identical timing to a
   single [compute]). *)
let submit_self t ~layer d =
  if d < 0 then invalid_arg "Thread.compute: negative duration";
  if d = 0 then ()
  else begin
    let needs_switch = t.blocked_since_run in
    t.blocked_since_run <- false;
    Sim.Fiber.suspend (fun fib resume ->
        Cpu.submit (Mach.cpu t.mach) ~key:(Sim.Fiber.id fib)
          ~prio:(prio_level t.tprio) ~needs_switch ~label:t.tname ~layer ~cost:d
          resume)
  end

let compute ?(cause = Obs.Cause.Proto_proc) ?(layer = Obs.Layer.App) ?(itemized = 0) d =
  let t = self () in
  Obs.Recorder.charge ~layer ~cause (d - itemized);
  submit_self t ~layer d

let charge_traps t ~layer n =
  if n > 0 then begin
    let d = n * (Mach.config t.mach).Mach.trap_cost in
    Obs.Recorder.charge ~layer ~cause:Obs.Cause.Regwin_trap d;
    Obs.Recorder.count "obs.regwin.traps" n;
    submit_self t ~layer d
  end

let call_frames ?(layer = Obs.Layer.App) n =
  let t = self () in
  charge_traps t ~layer (Regwin.call t.regwin n)

let ret_frames ?(layer = Obs.Layer.App) n =
  let t = self () in
  charge_traps t ~layer (Regwin.ret t.regwin n)

let syscall ?(kernel_work = 0) ?(layer = Obs.Layer.App) ?(itemized = 0) () =
  let t = self () in
  let base = (Mach.config t.mach).Mach.syscall_base in
  Obs.Recorder.charge ~layer ~cause:Obs.Cause.Uk_crossing base;
  Obs.Recorder.charge ~layer ~cause:Obs.Cause.Proto_proc (kernel_work - itemized);
  submit_self t ~layer (base + kernel_work);
  Regwin.syscall_save t.regwin

let mark_direct_wake t = t.blocked_since_run <- false

let sleep d =
  let t = self () in
  t.blocked_since_run <- true;
  Sim.Fiber.sleep d

let suspend register =
  let t = self () in
  t.blocked_since_run <- true;
  Sim.Fiber.suspend (fun _fib resume -> register t resume)
