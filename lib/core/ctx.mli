(** The run context: the five run-wide values every experiment driver
    shares, passed explicitly instead of as a chain of optional
    arguments or process-global defaults. *)

type t = {
  pool : Exec.Pool.t option;
      (** domain pool the driver's independent cells fan out over;
          [None] is the sequential path.  Results are identical either
          way. *)
  faults : Faults.Spec.t option;
      (** fault schedule installed on every cell's freshly built network
          (drivers that sweep their own loss rates override it) *)
  checked : bool;  (** interpose the protocol-conformance checkers *)
  net : Params.net_profile;  (** network era every cluster is built on *)
  lanes : bool;
      (** shard every multi-segment cluster (more than 8 machines) into
          conservative per-segment engine lanes *)
}

val default : t
(** No pool, no faults, unchecked, {!Params.net10m}, no lanes. *)
