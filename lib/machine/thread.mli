(** Kernel-level threads of a simulated machine.

    Amoeba provides only kernel threads, created and scheduled preemptively
    by the kernel; Panda maps its threads 1:1 onto them.  A thread here is a
    {!Sim.Fiber} bound to a machine: its [compute] calls occupy the
    machine's CPU (and can be preempted), its call stack is tracked by a
    register-window model, and its blocking operations go through {!Sync}.

    Two priorities exist: [Daemon] threads (protocol daemons) preempt
    [Normal] (application) threads, which is how an incoming group message
    preempts the Orca process on the user-space sequencer's machine. *)

type prio = Daemon | Normal

type t

val spawn : Mach.t -> ?prio:prio -> string -> (unit -> unit) -> t
(** The body starts at the current instant.  Spawning is free of simulated
    cost; charge creation costs explicitly where they matter. *)

val self : unit -> t
(** @raise Invalid_argument when not called from a thread. *)

val in_thread : unit -> bool
(** The caller runs in a machine thread. *)

val machine : t -> Mach.t
val name : t -> string
val fiber : t -> Sim.Fiber.t
val prio : t -> prio
val alive : t -> bool
val kill : t -> unit
val join : t -> unit

val compute :
  ?cause:Obs.Cause.t -> ?layer:Obs.Layer.t -> ?itemized:Sim.Time.span ->
  Sim.Time.span -> unit
(** [compute d] occupies the calling thread's CPU for [d] (plus any
    context-switch cost and preemption delays).  For cost attribution only
    (no timing effect), the work is charged to [(layer, cause)], defaulting
    to [(App, Proto_proc)].  A caller that splits [d] among causes charges
    the parts itself ({!Obs.Recorder.charge}) and passes their sum as
    [itemized] (default 0): only [d - itemized] goes to [(layer, cause)].
    It is still one CPU job, so the timing is that of the whole. *)

val call_frames : ?layer:Obs.Layer.t -> int -> unit
(** Models descending [n] call frames; charges overflow traps. *)

val ret_frames : ?layer:Obs.Layer.t -> int -> unit
(** Models returning [n] call frames; charges underflow traps. *)

val syscall :
  ?kernel_work:Sim.Time.span ->
  ?layer:Obs.Layer.t ->
  ?itemized:Sim.Time.span ->
  unit -> unit
(** One user/kernel round trip from the calling thread: charges the base
    crossing cost plus [kernel_work], and marks all register windows saved
    so the thread's subsequent [ret_frames] suffer underflow traps.

    Attribution (timing unaffected): the base crossing goes to
    [(layer, Uk_crossing)]; of [kernel_work], the caller has charged
    [itemized] (default 0) itself, and the remainder goes to
    [(layer, Proto_proc)]. *)

val mark_direct_wake : t -> unit
(** Declares that [t]'s pending wakeup is a direct return from kernel or
    interrupt context into the blocked thread — Amoeba's in-kernel RPC
    delivers the reply this way — so no scheduler invocation is owed.  If
    another thread has run meanwhile, a cold switch is still charged (the
    context is genuinely gone). *)

val sleep : Sim.Time.span -> unit
(** Blocks without occupying the CPU. *)

val suspend : (t -> (unit -> unit) -> unit) -> unit
(** Like {!Sim.Fiber.suspend} but passes the thread. *)
