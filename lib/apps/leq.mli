(** Linear Equation Solver: Jacobi iteration on a diagonally dominant
    system, unknowns block-distributed.

    Every iteration each process broadcasts its slice of the solution
    vector and waits for everyone else's — an all-to-all of totally-
    ordered group messages.  This is the application that overloads the
    user-space sequencer at 32 processors in the paper (the machine also
    runs an Orca process), and the one the dedicated-sequencer variant
    rescues.  Going from 16 to 32 processors doubles the message count and
    halves the message size, so runtimes rise — as in the paper.

    The run stops on the sequential reference's own convergence test,
    replicated: each rank measures the max component change of the vector
    it assembles and stops once that is at most [epsilon].  Every rank
    assembles the same vector, so all of them stop after exactly the
    sequential iteration count. *)

type params = {
  n : int;
  seed : int;
  epsilon : float;
  cell_cost : Sim.Time.span;  (** CPU time per multiply-add *)
}

val default_params : params
val test_params : params

val iterations : params -> int
(** Jacobi iterations of the sequential reference until convergence. *)

val make : Orca.Rts.domain -> params -> (rank:int -> unit) * (unit -> int)
(** [result ()] is a rounded checksum of the solution vector. *)

val sequential : params -> int
