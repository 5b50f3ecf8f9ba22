(** Deterministic exporters for a {!Recorder.t}. *)

val chrome_trace : Recorder.t -> string
(** Chrome [trace_event] JSON ({["{\"traceEvents\":[...]}"]}) with one
    complete ("X") event per span and thread-name metadata per track.
    Open [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto} and load
    the file.  Timestamps and durations are simulated microseconds. *)

val csv : Recorder.t -> string
(** CSV dump: the (layer x cause) ledger in nanoseconds, then counters, then
    series with count/mean/min/max and p50/p90/p95/p99. *)

val to_file : string -> string -> unit
(** [to_file path contents] writes [contents] to [path]. *)

(** A JSON value for the benchmark report; every string goes through the
    same escaper as the trace exporter. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Num of int * float  (** [Num (d, x)]: [x] printed with [d] decimals *)
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val json_to_string : json -> string
(** Indented JSON text with a trailing newline. *)
