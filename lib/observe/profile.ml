(* Hot-spot profiles over recorded span traces.

   [yashme profile trace.json] re-reads a file written by
   [--trace-out] and aggregates its Complete spans into per-name /
   per-category self-time tables plus a per-lane utilization summary.

   Self time is a span's duration minus the durations of its direct
   children, where nesting is interval containment within one
   (pid, tid) lane — exactly how the Chrome viewer draws them.  Both
   export formats of {!Trace.write} are read with {!Yashme_util.Json}. *)

module Json = Yashme_util.Json

(* ------------------------------------------------------------------ *)
(* Events                                                              *)

let int_field kvs key =
  match List.assoc_opt key kvs with
  | Some (`I i) -> i
  | Some (`F f) -> int_of_float f
  | _ -> 0

let str_field kvs key =
  match List.assoc_opt key kvs with Some (`S s) -> s | _ -> ""

(* One trace event object; [None] for phases this profiler does not
   aggregate (forward compatibility, not an error). *)
let event_of_json (doc : Json.t) =
  let kvs = match doc with `O kvs -> kvs | _ -> [] in
  let ph =
    match List.assoc_opt "ph" kvs with
    | Some (`S "X") -> Some Trace.Complete
    | Some (`S "i") -> Some Trace.Instant
    | _ -> None
  in
  Option.map
    (fun ph ->
      {
        Trace.name = str_field kvs "name";
        cat = str_field kvs "cat";
        ph;
        ts_us = int_field kvs "ts";
        dur_us = (if ph = Trace.Complete then int_field kvs "dur" else 0);
        pid = int_field kvs "pid";
        tid = int_field kvs "tid";
        args = [];
      })
    ph

let parse_file path =
  let what = "trace file" in
  if Filename.check_suffix path ".jsonl" then
    Json.load_lines ~what path (fun l -> Result.map event_of_json (Json.parse l))
    |> Result.map (List.filter_map Fun.id)
  else
    match Json.load ~what path with
    | Error e -> Error e
    | Ok (`O kvs) when List.mem_assoc "traceEvents" kvs -> (
        match List.assoc "traceEvents" kvs with
        | `A evs -> Ok (List.filter_map event_of_json evs)
        | _ -> Error (path ^ ": \"traceEvents\" is not an array"))
    | Ok _ -> Error (path ^ ": not a Chrome trace (no \"traceEvents\" member)")

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)

type row = { r_key : string; r_count : int; r_total_us : int; r_self_us : int }

type lane = {
  l_pid : int;
  l_tid : int;
  l_spans : int;
  l_instants : int;
  l_busy_us : int;  (* summed duration of top-level spans *)
}

let aggregate ~key events =
  let tbl : (string, int * int * int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (_, evs) ->
      Trace.nest evs (fun ev ~self_us ~top_level:_ ->
          let k = key ev in
          let count, total, self =
            Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl k)
          in
          Hashtbl.replace tbl k
            (count + 1, total + ev.Trace.dur_us, self + self_us)))
    (Trace.lanes events);
  Hashtbl.fold
    (fun k (count, total, self) acc ->
      { r_key = k; r_count = count; r_total_us = total; r_self_us = self } :: acc)
    tbl []
  |> List.sort (fun a b ->
         match compare b.r_self_us a.r_self_us with
         | 0 -> compare a.r_key b.r_key
         | c -> c)

let by_name events = aggregate ~key:(fun (e : Trace.event) -> e.Trace.name) events

let by_cat events =
  aggregate
    ~key:(fun (e : Trace.event) ->
      if e.Trace.cat = "" then "(uncategorized)" else e.Trace.cat)
    events

let lanes events =
  List.map
    (fun ((pid, tid), evs) ->
      let spans = ref 0 and instants = ref 0 and busy = ref 0 in
      List.iter
        (fun (e : Trace.event) ->
          match e.Trace.ph with
          | Trace.Instant -> incr instants
          | Trace.Complete -> incr spans)
        evs;
      Trace.nest evs (fun ev ~self_us:_ ~top_level ->
          if top_level then busy := !busy + ev.Trace.dur_us);
      { l_pid = pid; l_tid = tid; l_spans = !spans; l_instants = !instants;
        l_busy_us = !busy })
    (Trace.lanes events)
