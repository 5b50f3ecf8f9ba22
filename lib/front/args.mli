(** The command-line vocabulary both front ends share: argument
    converters, the run-context flags and the observability flags. *)

val impl : Core.Cluster.impl Cmdliner.Arg.conv
val stack : Core.Cluster.stack Cmdliner.Arg.conv

val profile : Core.Params.net_profile Cmdliner.Arg.conv
(** A network era name, or the path of a profile file written by
    [calibrate --out]. *)

val policy : Panda.Seq_policy.t Cmdliner.Arg.conv
val policies : Panda.Seq_policy.t list Cmdliner.Arg.conv
val skew : Load.Keys.skew Cmdliner.Arg.conv
val mix : Load.Mix.t Cmdliner.Arg.conv
val arrival : Load.Arrival.t Cmdliner.Arg.conv
val op : Load.Clients.op Cmdliner.Arg.conv

type runner = { with_ctx : 'a. (Core.Ctx.t -> 'a) -> 'a }
(** Runs a body under the parsed context, inside a domain pool when
    [-j] is above 1. *)

val ctx_term : runner Cmdliner.Term.t
(** [-j N] (default: the host's recommended domain count),
    [--profile ERA|FILE], [--faults SPEC], [--checked] and [--lanes].
    A fault schedule always runs with the conformance checkers on. *)

type obs

val obs_term : trace:bool -> obs Cmdliner.Term.t
(** [--obs-log]; with [trace], also [--trace FILE] and [--obs]. *)

val obs_requested : obs -> bool
(** Whether [--trace] or [--obs] asked for a recorded run. *)

val write_obs : ?run:[ `User | `Kernel | `Opt ] * int -> obs -> unit
(** Records one Table 1 RPC run (default: user-space, null) when asked,
    writing its Chrome trace and/or printing its ledger CSV. *)
