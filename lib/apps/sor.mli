(** Successive Overrelaxation: red/black Gauss-Seidel with overrelaxation
    on a 2-D grid, rows block-distributed.

    Two half-sweeps per iteration, each preceded by a boundary-row
    exchange through guarded buffer objects — the finest-grained of the
    six applications, saturating the Ethernet at large processor counts
    exactly as the paper reports.  Every few iterations the ranks vote on
    convergence through a replicated object and stop together once nobody
    moved a cell by more than [epsilon] since the last vote — the rule the
    sequential reference follows, so both run the same iteration count. *)

type params = {
  h : int;
  w : int;
  seed : int;
  epsilon : float;
  omega : float;
  cell_cost : Sim.Time.span;
}

val default_params : params
val test_params : params

val half_sweep :
  p:params ->
  colour:int ->
  global_lo:int ->
  float array array ->
  above:float array ->
  below:float array ->
  float
(** [half_sweep ~p ~colour ~global_lo rows ~above ~below] relaxes, in
    place, the cells of colour [colour] (those with [(i + j) land 1 =
    colour], [i] the global row) in a block of rows whose first is global
    row [global_lo].  [above] and [below] are the neighbouring blocks'
    boundary rows; an empty one reads as [nan].  The grid's edge rows and
    columns stay fixed.  Returns the largest change of a cell. *)

val make : Orca.Rts.domain -> params -> (rank:int -> unit) * (unit -> int)
(** [result ()] is a rounded checksum of the converged grid. *)

val sequential : params -> int
