(** Region Labelling: iterative connected-component labelling of a binary
    image, rows block-distributed.

    Each iteration every rank updates its block (minimum label over the
    4-neighbourhood) and exchanges boundary rows with its neighbours
    through guarded buffer objects — many small remote guarded operations,
    the pattern on which the paper's user-space implementation beats the
    kernel-space one.  Every [check_every] iterations the ranks vote on
    whether any label changed and stop together once none did — the rule
    the sequential reference follows. *)

type params = {
  h : int;
  w : int;
  seed : int;
  density_pct : int;
  scan_cost : Sim.Time.span;  (** per cell visited *)
  change_cost : Sim.Time.span;  (** extra work per label actually updated *)
  check_every : int;  (** iterations between convergence votes *)
}

val default_params : params
val test_params : params

val background : int
(** The label of a background pixel (never updated). *)

val update_block : w:int -> int array array -> above:int array -> below:int array -> int
(** [update_block ~w rows ~above ~below] sets, synchronously, every
    foreground label of a block of rows of width [w] to the least label of
    itself and its four neighbours.  [above] and [below] are the
    neighbouring blocks' boundary rows; an empty one, like the image's
    edge, reads as {!background}.  Returns the number of labels changed. *)

val make : Orca.Rts.domain -> params -> (rank:int -> unit) * (unit -> int)
(** [result ()] is the sum of final labels (a checksum). *)

val sequential : params -> int
