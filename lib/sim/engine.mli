(** The discrete-event engine.

    Events live in per-lane schedulers, each a hybrid of a near-term binary
    heap and a far-term hierarchical timing wheel ({!Wheel}): the engine
    stamps every event with a per-lane sequence number when it is
    scheduled, and wheel buckets drain into the heap before the clock
    reaches them, so the pop order is exactly the (time, scheduling order)
    total order of a pure heap — the wheel only makes far timers (the
    200 ms retransmission class, nearly always cancelled) O(1) to insert
    and cancel.

    By default an engine has one lane and [run] is a plain sequential
    loop.  A multi-segment topology may call {!configure_lanes} to shard
    the simulation into lanes advanced with conservative windows: each
    window executes every lane up to horizon = earliest event + lookahead
    (the minimum cross-lane latency), then merges buffered cross-lane
    sends in (time, source lane, send seq) order.  Scheduling, execution
    and merge order are all deterministic functions of the event contents,
    so laned runs are reproducible event-for-event; 1-lane engines take
    the exact sequential path.

    An engine is single-domain mutable state: one engine must only ever be
    driven from one domain at a time.  Distinct engines are fully
    independent, so independent simulations may run concurrently on
    OCaml 5 domains (see [Exec.Pool]). *)

type t

exception Stopped
(** Raised inside [run] by {!stop}. *)

exception Fiber_failure of string * exn
(** A fiber raised an uncaught exception; carries the fiber name. *)

val create : ?wheel:bool -> ?wheel_near:Time.span -> unit -> t
(** [create ()] is a fresh 1-lane engine.  [wheel] (default [true])
    enables the far-timer wheel; [wheel_near] (default ~4.2 ms, clamped to
    at least two wheel granules) is the delay below which events bypass the
    wheel.  Disabling the wheel changes performance only, never results. *)

val now : t -> Time.t
(** Current simulated time (of the executing lane). *)

val fresh_id : t -> int
(** A small unique id scoped to this engine (1, 2, 3, ...).  Layers that
    need simulation-unique identifiers (e.g. FLIP addresses) draw from
    here, so every simulation sees the same id sequence regardless of what
    ran before it or concurrently with it. *)

type handle = private int
(** Identifies a scheduled event so it can be cancelled.  An immediate
    int packing (lane, scheduler kind, slot/generation); stale handles
    are harmless. *)

val at : t -> Time.t -> (unit -> unit) -> handle
(** [at t time f] runs [f] when the clock reaches [time].  [time] must not be
    in the past. *)

val after : t -> Time.span -> (unit -> unit) -> handle
(** [after t d f] runs [f] [d] from now. *)

val schedule_now : t -> (unit -> unit) -> handle
(** [schedule_now t f] runs [f] at the current instant, after all callbacks
    already scheduled for this instant. *)

val cancel : t -> handle -> unit
(** [cancel t hd] deschedules the event.  Idempotent; harmless after the
    event fired.  O(1) for wheel-resident (far) timers. *)

val run : ?until:Time.t -> t -> unit
(** [run t] executes events until none remain, [stop] is called, or the
    clock would pass [until] (events beyond [until] stay queued).  The
    process-wide counters ({!events_total}, {!live_hw}) are flushed even if
    a callback raises. *)

val step : t -> bool
(** [step t] executes exactly one event.  Returns [false] when none remain.
    Useful in unit tests.  @raise Invalid_argument on a laned engine. *)

val stop : t -> unit
(** Makes the active [run] return after the current callback. *)

val pending : t -> int
(** Number of live events still queued across all lanes.  O(lanes). *)

val events_executed : t -> int
(** Total callbacks executed so far; a cheap progress / complexity probe. *)

val events_total : unit -> int
(** Process-wide count of events executed by all engines on all domains
    (updated when each [run] returns). *)

(** {1 Event lanes (conservative parallel windows)} *)

val configure_lanes : t -> n:int -> lookahead:Time.span -> unit
(** [configure_lanes t ~n ~lookahead] shards the engine into [n] lanes
    advanced in conservative windows of [lookahead] ns (the minimum
    cross-lane latency; must be positive when [n > 1]).  Must be called
    before cross-lane events exist — in practice by [Net.Topology] at
    build time.  [n = 1] is a no-op.  Events already scheduled stay in
    lane 0.  @raise Invalid_argument if already configured. *)

val laned_engines : unit -> int
(** Process-wide count of engines configured with more than one lane, on
    all domains. *)

val n_lanes : t -> int
val lookahead : t -> Time.span

val current_lane : t -> int
(** Lane whose events are currently executing (or being set up). *)

val with_lane : t -> int -> (unit -> 'a) -> 'a
(** [with_lane t lane f] runs the setup code [f] with [lane] as the
    current lane, so events it schedules (fiber spawns, daemons) live — and
    stay — in that lane.  Restores the previous lane on exit. *)

val at_lane : t -> lane:int -> Time.t -> (unit -> unit) -> unit
(** [at_lane t ~lane time f] schedules [f] into [lane].  Same-lane calls
    degrade to {!at}.  Cross-lane sends require
    [time >= now + lookahead] (the conservative guarantee), are buffered
    in a per-source channel stamped (time, source lane, send seq), merge
    deterministically at the window boundary, and cannot be cancelled. *)

val windows : t -> int
(** Number of conservative windows executed so far. *)

val cross_merged : t -> int
(** Number of cross-lane messages merged so far. *)

(** {1 Occupancy accounting} *)

val occupancy_hw : t -> int
(** High-water mark of pending events (heap + wheel) in any single lane of
    this engine. *)

val live_hw : unit -> int
(** Process-wide high-water mark of per-lane pending events across all
    engines since the last {!reset_live_hw} (flushed when each [run]
    returns).  The bench harness records it per artifact to catch event
    leaks. *)

val reset_live_hw : unit -> unit
