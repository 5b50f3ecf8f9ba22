open Cmdliner

(* A converter from a parser returning [Ok]/[Error msg] and a printer to
   the flag's spelling. *)
let conv parse print = Arg.conv (parse, fun fmt x -> Format.pp_print_string fmt (print x))
let of_result parse s = Result.map_error (fun m -> `Msg m) (parse s)

let of_option ?(expected = "") what parse s =
  match parse s with
  | Some v -> Ok v
  | None -> Error (`Msg (Printf.sprintf "unknown %s %S%s" what s expected))

let impl =
  conv
    (of_option "implementation" (fun s ->
         List.find_opt (fun i -> Core.Cluster.impl_label i = s) Core.Cluster.all_impls))
    Core.Cluster.impl_label

let stack = conv (of_option "stack" Core.Cluster.stack_of_string) Core.Cluster.stack_label

let profile =
  let parse s =
    match Core.Params.net_profile_of_string s with
    | Some p -> Ok p
    | None when Sys.file_exists s ->
      Result.map_error
        (fun e -> `Msg (Printf.sprintf "profile file %s: %s" s e))
        (Core.Params.net_profile_load s)
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown network profile %S (expected %s, or a profile file)"
              s
              (String.concat " | "
                 (List.map (fun p -> p.Core.Params.np_name) Core.Params.net_profiles))))
  in
  conv parse (fun p -> p.Core.Params.np_name)

let policy = conv (of_result Panda.Seq_policy.of_string) Panda.Seq_policy.to_string

let policies =
  conv (of_result Panda.Seq_policy.parse_list) (fun ps ->
      String.concat "," (List.map Panda.Seq_policy.to_string ps))

let skew =
  conv
    (of_option ~expected:" (expected uniform | zipf:THETA)" "skew" Load.Keys.skew_of_string)
    Load.Keys.skew_label

let mix = conv (of_result Load.Mix.parse) Load.Mix.to_string
let arrival = conv (of_result Load.Arrival.parse) Load.Arrival.to_string
let op = Arg.enum [ ("rpc", Load.Clients.Rpc); ("group", Load.Clients.Group) ]

type runner = { with_ctx : 'a. (Core.Ctx.t -> 'a) -> 'a }

let ctx_term =
  let jobs =
    let parse s =
      match int_of_string_opt s with
      | Some j when j >= 1 -> Ok j
      | _ -> Error (`Msg (Printf.sprintf "bad domain count %S" s))
    in
    Arg.(
      value
      & opt (conv (parse, Format.pp_print_int)) (Exec.Pool.recommended ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Run the independent simulations on $(docv) domains (default: the \
             host's recommended domain count).  The output is bit-identical \
             for every value; 1 is the plain sequential path.")
  in
  let net =
    Arg.(
      value
      & opt profile Core.Params.net10m
      & info [ "profile" ] ~docv:"ERA"
          ~doc:
            "Network era the clusters are built on: $(b,net10m) (the paper's \
             10 Mbit/s Ethernet, the default), $(b,net100m), $(b,net1g) or \
             $(b,net10g) — or the path of a profile file written by \
             $(b,calibrate --out).  Machine and protocol costs stay at their \
             1995 values; only wire, switch and NIC constants change.")
  in
  let faults =
    Arg.(
      value
      & opt (some (conv (of_result Faults.Spec.parse, Faults.Spec.pp))) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Inject deterministic network faults, e.g. \
             $(b,seed=42,loss=0.01,dup=0.005,burst=0.001x8,part=0.5+0.2).  Keys: \
             seed, loss, dup, corrupt, reorder, rdelay (us), burst=PxN, \
             part=T+D (s), swpart=T+D (s), seqcrash=T (s; crash the group \
             sequencer mid-run — needs a recoverable $(b,--sequencer) policy).  \
             Implies $(b,--checked).")
  in
  let checked =
    Arg.(
      value & flag
      & info [ "checked" ]
          ~doc:
            "Interpose the protocol-conformance checkers (at-most-once RPC, \
             request/reply pairing, payload integrity, gap-free identical \
             total order, one-sided CAS invariants); violations are printed \
             and make the run exit nonzero.")
  in
  let lanes =
    Arg.(
      value & flag
      & info [ "lanes" ]
          ~doc:
            "Shard each multi-segment cluster (more than 8 machines) into \
             conservative per-segment engine lanes with deterministic \
             cross-lane merge.  Laned runs are bit-identical at every \
             $(b,-j); they match the unlaned engine exactly unless the \
             workload produces same-instant cross-segment arrivals, where \
             only the deterministic tie-break order differs.")
  in
  let make jobs net faults checked lanes =
    let ctx pool =
      { Core.Ctx.pool; faults; checked = checked || faults <> None; net; lanes }
    in
    {
      with_ctx =
        (fun f ->
          if jobs <= 1 then f (ctx None)
          else Exec.Pool.with_pool ~jobs (fun p -> f (ctx (Some p))));
    }
  in
  Term.(const make $ jobs $ net $ faults $ checked $ lanes)

type obs = { trace : string option; csv : bool }

let obs_term ~trace:with_trace =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Also record a user-space null RPC run and write a Chrome \
             trace_event JSON of it to $(docv) (load in chrome://tracing or \
             Perfetto)")
  in
  let csv =
    Arg.(
      value & flag
      & info [ "obs" ] ~doc:"Dump the recorded run's cost ledger and statistics as CSV")
  in
  let log =
    Arg.(value & flag & info [ "obs-log" ] ~doc:"Print the simulator's timestamped event log")
  in
  let make trace csv log =
    if log then Obs.Log.set_enabled true;
    { trace; csv }
  in
  if with_trace then Term.(const make $ trace $ csv $ log)
  else Term.(const (make None false) $ log)

let obs_requested o = o.trace <> None || o.csv

let write_obs ?(run = (`User, 0)) o =
  if obs_requested o then begin
    let impl, size = run in
    let r, _busy = Core.Experiments.recorded_rpc ~impl ~size () in
    let what =
      (match impl with
       | `User -> "user-space"
       | `Kernel -> "kernel-space"
       | `Opt -> "optimized user-space")
      ^ if size = 0 then " null" else Printf.sprintf " %d-byte" size
    in
    Option.iter
      (fun file ->
        try
          Obs.Export.to_file file (Obs.Export.chrome_trace r);
          Printf.printf "wrote Chrome trace of a %s RPC run to %s (%d spans)\n" what file
            (Obs.Recorder.n_spans r)
        with Sys_error msg ->
          Printf.eprintf "cannot write trace: %s\n" msg;
          exit 1)
      o.trace;
    if o.csv then print_string (Obs.Export.csv r)
  end
