(* Exporters for a recorder: Chrome trace_event JSON and CSV.

   Both outputs are deterministic for a deterministic simulation run: spans
   are emitted in begin order, tracks in first-use order, counters and series
   sorted by name, and no wall-clock data is included. *)

let json_escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* Fiber tracks carry a "#<fiber id>" suffix to keep them unique, but fiber
   ids are a process-global counter, so they vary between identical runs in
   one process.  Display names drop the suffix (disambiguating duplicates
   by track order), keeping exports byte-identical across reruns. *)
let display_names tracks =
  let stem tr =
    match String.rindex_opt tr '#' with
    | Some i
      when i < String.length tr - 1
           && String.for_all
                (function '0' .. '9' -> true | _ -> false)
                (String.sub tr (i + 1) (String.length tr - i - 1)) ->
      String.sub tr 0 i
    | _ -> tr
  in
  let seen = Hashtbl.create 16 in
  List.map
    (fun tr ->
      let s = stem tr in
      let n = try Hashtbl.find seen s with Not_found -> 0 in
      Hashtbl.replace seen s (n + 1);
      if n = 0 then s else Printf.sprintf "%s@%d" s (n + 1))
    tracks

(* Chrome trace_event format: one "X" (complete) event per span, ts/dur in
   microseconds; tid is the dense index of the span's track; "M" metadata
   events name the tracks.  Open spans are closed at the recorder's last
   observed time so the file is always well-formed. *)
let chrome_trace_buf buf t =
  let tracks = Recorder.tracks t in
  let tid_of =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun i tr -> Hashtbl.replace tbl tr i) tracks;
    fun tr -> try Hashtbl.find tbl tr with Not_found -> -1
  in
  let last = Recorder.last_time t in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n "
  in
  List.iteri
    (fun i name ->
      sep ();
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\
            \"args\":{\"name\":\"" i);
      json_escape buf name;
      Buffer.add_string buf "\"}}")
    (display_names tracks);
  List.iter
    (fun (sp : Recorder.span) ->
      sep ();
      let sp_end = if sp.sp_end >= 0 then sp.sp_end else last in
      let ts = float_of_int sp.sp_begin /. 1_000. in
      let dur = float_of_int (sp_end - sp.sp_begin) /. 1_000. in
      Buffer.add_string buf "{\"name\":\"";
      json_escape buf sp.sp_name;
      Buffer.add_string buf
        (Printf.sprintf
           "\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\
            \"ts\":%.3f,\"dur\":%.3f}"
           (Layer.to_string sp.sp_layer)
           (tid_of sp.sp_track) ts dur))
    (Recorder.spans t);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ns\"}\n"

let chrome_trace t =
  let buf = Buffer.create 4096 in
  chrome_trace_buf buf t;
  Buffer.contents buf

(* CSV: one section per data kind, `kind,key...,value` rows. *)
let csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "kind,layer_or_name,cause_or_stat,value\n";
  List.iter
    (fun layer ->
      List.iter
        (fun cause ->
          let ns = Recorder.ledger_ns t ~layer ~cause in
          if ns <> 0 then
            Buffer.add_string buf
              (Printf.sprintf "ledger,%s,%s,%d\n" (Layer.to_string layer)
                 (Cause.to_string cause) ns))
        Cause.all)
    Layer.all;
  let stats = Recorder.stats t in
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf (Printf.sprintf "counter,%s,count,%d\n" name v))
    (Sim.Stats.counters stats);
  List.iter
    (fun (name, (count, mean, min_v, max_v)) ->
      Buffer.add_string buf
        (Printf.sprintf "series,%s,count,%d\n" name count);
      Buffer.add_string buf
        (Printf.sprintf "series,%s,mean,%.6f\n" name mean);
      Buffer.add_string buf (Printf.sprintf "series,%s,min,%.6f\n" name min_v);
      Buffer.add_string buf (Printf.sprintf "series,%s,max,%.6f\n" name max_v);
      List.iter
        (fun p ->
          Buffer.add_string buf
            (Printf.sprintf "series,%s,p%g,%.6f\n" name p
               (Sim.Stats.percentile stats name p)))
        [ 50.; 90.; 95.; 99.; 99.9 ])
    (Sim.Stats.series stats);
  Buffer.contents buf

let to_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Num of int * float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let compound = function Arr (_ :: _) | Obj (_ :: _) -> true | _ -> false

(* Containers whose members are all scalars print on one line; any other
   container puts each member on its own line, indented two spaces. *)
let rec json_buf buf indent = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Num (digits, x) -> Buffer.add_string buf (Printf.sprintf "%.*f" digits x)
  | Str s ->
    Buffer.add_char buf '"';
    json_escape buf s;
    Buffer.add_char buf '"'
  | Arr items -> json_seq buf indent '[' ']' (List.map (fun j -> (None, j)) items)
  | Obj fields -> json_seq buf indent '{' '}' (List.map (fun (k, j) -> (Some k, j)) fields)

and json_seq buf indent op cl members =
  let nested = List.exists (fun (_, j) -> compound j) members in
  let inner = indent ^ "  " in
  Buffer.add_char buf op;
  List.iteri
    (fun i (key, j) ->
      if i > 0 then Buffer.add_char buf ',';
      if nested then (Buffer.add_char buf '\n'; Buffer.add_string buf inner)
      else if i > 0 then Buffer.add_char buf ' ';
      Option.iter
        (fun k ->
          json_buf buf inner (Str k);
          Buffer.add_string buf ": ")
        key;
      json_buf buf inner j)
    members;
  if nested then (Buffer.add_char buf '\n'; Buffer.add_string buf indent);
  Buffer.add_char buf cl

let json_to_string j =
  let buf = Buffer.create 4096 in
  json_buf buf "" j;
  Buffer.add_char buf '\n';
  Buffer.contents buf
