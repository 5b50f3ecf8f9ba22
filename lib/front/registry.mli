(** One registry of experiments behind both front ends.  Each experiment
    is registered once — name, parameter term with its defaults, run,
    printer, JSON and failure count — and [amoeba_repro]'s subcommands
    and [bench/main.exe]'s artifacts are generated from it. *)

type csv = string list * (string list * Load.Metrics.t) list
(** Extra column names, and one row of extra cells plus metrics per
    measured operating point. *)

type ('p, 'r) exp = {
  name : string;
  doc : string;
  params : 'p Cmdliner.Term.t;  (** the subcommand's own flags *)
  run : Core.Ctx.t -> 'p -> 'r;
  pp : Format.formatter -> 'r -> unit;
  json : (Core.Ctx.t -> 'r -> Obs.Export.json) option;
      (** the experiment's section of the benchmark report *)
  failures : 'r -> int;  (** violations and invalid results; nonzero exits 1 *)
  csv : ('r -> csv) option;  (** adds [--out FILE] to the subcommand *)
  trace : ('p -> [ `User | `Kernel | `Opt ] * int) option;
      (** the RPC run [--trace] and [--obs] record; adds those flags *)
}

type t = E : ('p, 'r) exp -> t

val exp :
  name:string ->
  doc:string ->
  ?json:(Core.Ctx.t -> 'r -> Obs.Export.json) ->
  ?failures:('r -> int) ->
  ?csv:('r -> csv) ->
  ?trace:('p -> [ `User | `Kernel | `Opt ] * int) ->
  'p Cmdliner.Term.t ->
  (Core.Ctx.t -> 'p -> 'r) ->
  (Format.formatter -> 'r -> unit) ->
  ('p, 'r) exp

val hr : Format.formatter -> string -> unit
(** A section title underlined with [=]. *)

val soak : (Scenario.Soak.config, Scenario.Soak.report) exp
(** The soak takes faults, era and lanes from the run context. *)

val experiments : t list

exception Usage of string
(** Raised by a run on a usage error; the subcommand exits 2. *)

val command : t -> unit Cmdliner.Cmd.t
(** The [amoeba_repro] subcommand: the run-context and observability
    flags, the experiment's own, then run, print, optional CSV, and exit
    1 on failures. *)

(** A benchmark artifact entry: the experiment run with [preset] under
    [adjust ctx], printed after [title], its JSON stored under [key]
    (with no key, the fields of its JSON object are spliced into the
    artifact's section). *)
type entry

val entry :
  ?key:string -> ?title:string -> ?adjust:(Core.Ctx.t -> Core.Ctx.t) -> ('p, 'r) exp -> 'p -> entry

type artifact = {
  name : string;
  quick_variant : bool;  (** [quick] changes its presets (and its timing name) *)
  entries : quick:bool -> entry list;
  footer : (int -> string) option;  (** a summary line given the total failures *)
}

val artifact :
  ?quick_variant:bool ->
  ?footer:(int -> string) ->
  string ->
  (quick:bool -> entry list) ->
  artifact

val artifacts : artifact list
(** The paper's tables and this reproduction's experiments, in bench
    order. *)

val run_artifact : Core.Ctx.t -> quick:bool -> artifact -> Obs.Export.json option
(** Runs and prints every entry; returns the artifact's JSON section, if
    any entry has one. *)
