(** Runs one Orca application on a freshly built cluster and reports the
    simulated execution time (the paper's Table 3 measurements). *)

type app = {
  app_name : string;
  app_make : Orca.Rts.domain -> (rank:int -> unit) * (unit -> int);
  app_reference : int Lazy.t;
      (** host-side sequential result, for validating the run *)
}

val apps : app list
(** The paper's six applications, paper-calibrated parameters. *)

val app_named : string -> app

type stats = {
  s_broadcasts : int;  (** totally-ordered broadcasts (replicated writes) *)
  s_remote : int;  (** remote object invocations (RPCs) *)
  s_parked : int;  (** guarded operations that blocked *)
  s_migrations : int;  (** adaptive placement migrations *)
  s_net_bytes : int;  (** bytes carried by all Ethernet segments *)
  s_net_util : float;  (** busiest segment's utilization over the run *)
  s_cpu_util_max : float;  (** busiest machine's CPU utilization *)
  s_ctx_switches : int;  (** context switches across all machines *)
}

type outcome = {
  o_app : string;
  o_impl : Cluster.impl;
  o_procs : int;
  o_seconds : float;  (** simulated wall-clock of the parallel phase *)
  o_checksum : int;
  o_valid : bool;  (** checksum matched the sequential reference *)
  o_events : int;  (** engine events executed (simulation effort) *)
  o_stats : stats;
  o_retrans : int;  (** protocol retransmissions over the whole run *)
  o_fault_kills : int;  (** frames killed by the injected fault schedule *)
  o_violations : string list;
      (** invariant violations (empty outside checked mode — and, for a
          correct protocol stack, inside it) *)
}

val run :
  ?faults:Faults.Spec.t ->
  ?checked:bool ->
  ?net:Params.net_profile ->
  ?lanes:bool ->
  ?sequencer:Panda.Seq_policy.t ->
  impl:Cluster.impl ->
  procs:int ->
  app ->
  outcome
(** [?faults] installs the fault schedule on the cluster's network before
    the run (its [seq_crash] instant, if any, is scheduled against the
    backend's sequencer); [?checked] (default false) wraps the backends in
    the {!Faults.Invariants} conformance checkers — sized to the policy's
    shard count — and reports violations in [o_violations]; [?net]
    (default {!Params.net10m}) picks the network era the cluster is built
    on; [?lanes] (default [false]) shards multi-segment
    clusters into conservative engine lanes, with each rank's worker fiber
    spawned in its machine's lane; [?sequencer] (default [Single]) selects
    the sequencer capacity policy the group stack runs. *)

val prepare : app -> unit
(** Forces the app's sequential reference result.  Must be called (in one
    domain) before [run] may execute on worker domains: forcing the same
    lazy from two domains concurrently is a race.  [run_many] does this
    itself. *)

val run_many :
  ?ctx:Ctx.t -> ?sequencer:Panda.Seq_policy.t -> (Cluster.impl * int * app) list -> outcome list
(** Runs each (impl, procs, app) cell as an independent simulation under
    [ctx] (default {!Ctx.default}; each cell derives its own injector
    streams, so fan-out stays deterministic) and returns outcomes in input
    order.  Without a pool the cells run sequentially in order — exactly
    [List.map] over {!run}.  With [ctx.pool] the cells run concurrently on
    its domains; since every simulation is deterministic and confined to
    one domain, the result list is identical either way. *)

val pp_outcome : Format.formatter -> outcome -> unit

val pp_stats : Format.formatter -> stats -> unit
