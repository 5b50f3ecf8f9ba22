open Effect.Deep

(* [Ready]: spawned, or woken with its resume event queued. *)
type state = Ready | Running | Suspended | Dead

type local = ..
type local += Unset

type t = {
  fid : int;
  fname : string;
  eng : Engine.t;
  mutable state : state;
  mutable killed : bool;
  mutable exit_hooks : (unit -> unit) list;
  (* Bumped at every suspension; a resume carries the generation it was
     handed out for, so one kept from an earlier suspension is inert. *)
  mutable gen : int;
  mutable cont : (unit, unit) continuation option;
  mutable register : t -> (unit -> unit) -> unit;  (* of the pending [suspend] *)
  mutable sleep_for : Time.span;  (* argument of the pending [sleep] *)
  mutable timer : Engine.handle;  (* [sleep]'s wake-up, cancelled on any wake *)
  mutable local : local;
  (* Preallocated once per fiber so a suspend/resume cycle allocates only
     its continuation, its resume closure and the [Some] holding the
     continuation. *)
  some_self : t option;
  on_suspend : ((unit, unit) continuation -> unit) option;
  resume_event : unit -> unit;
}

exception Killed

type _ Effect.t += Suspend : (t -> (unit -> unit) -> unit) -> unit Effect.t

(* Both the fiber-id counter and the currently-running fiber are
   domain-local: each Exec.Pool worker domain drives its own engines, and
   sharing either across domains would race. *)
let next_id = Domain.DLS.new_key (fun () -> ref 0)
let current = Domain.DLS.new_key (fun () : t option ref -> ref None)

let with_current fiber f x =
  let current = Domain.DLS.get current in
  let saved = !current in
  current := fiber.some_self;
  match f x with
  | () -> current := saved
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    current := saved;
    Printexc.raise_with_backtrace e bt

let self_opt () = !(Domain.DLS.get current)

let self () =
  match self_opt () with
  | Some f -> f
  | None -> invalid_arg "Fiber.self: not inside a fiber"

let in_fiber () = self_opt () <> None
let name t = t.fname
let id t = t.fid
let alive t = t.state <> Dead
let engine t = t.eng
let local t = t.local
let set_local t v = t.local <- v

let run_exit_hooks fiber =
  let hooks = fiber.exit_hooks in
  fiber.exit_hooks <- [];
  List.iter (fun f -> f ()) hooks

let finish fiber =
  fiber.state <- Dead;
  fiber.cont <- None;
  run_exit_hooks fiber

let wake fiber gen =
  if gen = fiber.gen && fiber.state = Suspended then begin
    fiber.state <- Ready;
    if fiber.timer <> Engine.no_handle then begin
      Engine.cancel fiber.eng fiber.timer;
      fiber.timer <- Engine.no_handle
    end;
    ignore (Engine.schedule_now fiber.eng fiber.resume_event)
  end

let no_register _ _ = ()

let suspended fiber k =
  fiber.state <- Suspended;
  fiber.cont <- Some k;
  fiber.gen <- fiber.gen + 1;
  let register = fiber.register in
  fiber.register <- no_register;
  let gen = fiber.gen in
  register fiber (fun () -> wake fiber gen);
  if fiber.killed then wake fiber gen

let continue_fiber fiber =
  match fiber.cont with
  | None -> assert false
  | Some k ->
    fiber.cont <- None;
    if fiber.killed then discontinue k Killed
    else begin
      fiber.state <- Running;
      continue k ()
    end

let handler fiber =
  {
    retc = (fun () -> finish fiber);
    exnc =
      (fun e ->
        finish fiber;
        match e with
        | Killed -> ()
        | e -> raise (Engine.Fiber_failure (fiber.fname, e)));
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) continuation -> unit) option ->
        match eff with
        | Suspend register ->
          fiber.register <- register;
          fiber.on_suspend
        | _ -> None);
  }

let spawn eng ?(name = "fiber") f =
  let next_id = Domain.DLS.get next_id in
  incr next_id;
  let rec fiber =
    {
      fid = !next_id;
      fname = name;
      eng;
      state = Ready;
      killed = false;
      exit_hooks = [];
      gen = 0;
      cont = None;
      register = no_register;
      sleep_for = 0;
      timer = Engine.no_handle;
      local = Unset;
      some_self = Some fiber;
      on_suspend = Some (fun k -> suspended fiber k);
      resume_event = (fun () -> with_current fiber continue_fiber fiber);
    }
  in
  ignore
    (Engine.schedule_now eng (fun () ->
         if not fiber.killed then begin
           fiber.state <- Running;
           with_current fiber (fun () -> match_with f () (handler fiber)) ()
         end
         else finish fiber));
  fiber

let suspend register =
  ignore (self ());
  Effect.perform (Suspend register)

let sleep_register fiber resume =
  fiber.timer <- Engine.after fiber.eng fiber.sleep_for resume

let suspend_sleep = Suspend sleep_register

let sleep d =
  (self ()).sleep_for <- d;
  Effect.perform suspend_sleep

let yield () = sleep 0

let kill t =
  if t.state <> Dead then begin
    t.killed <- true;
    if t.state = Suspended then wake t t.gen
  end

let on_exit t f = if t.state = Dead then f () else t.exit_hooks <- f :: t.exit_hooks

let join t =
  if alive t then suspend (fun _ resume -> on_exit t resume)
