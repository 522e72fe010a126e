(* Per-domain execution timelines, reconstructed from recorded traces.

   The engine's trace gives every worker domain a lane (pid 0, tid =
   worker slot) holding one [worker] span per pool lifetime and one
   [scenario] span per unit of claimed work.  This module folds those
   spans back into a lane chart: for each lane, maximal segments of

   - {b busy} time — covered by a work span (category ["scenario"] by
     default; top-level spans when a lane has none),
   - {b queue-wait} time — inside an alive span (name ["worker"] by
     default; the lane's own extent when it has none) but outside any
     work span: the domain existed and was polling the queue, and
   - {b idle} time — inside the batch window but outside the lane's
     alive cover: the domain had not started or had already finished.

   Everything here is wall-clock class: lane charts differ run to run
   and across --jobs counts by construction, so nothing below feeds
   the deterministic report path.  The [t_critical_path_us] figure is
   the largest per-lane busy total — a lower bound on the makespan any
   schedule could reach with this work partition.

   Rendering is dependency-free: an ASCII lane chart, a hand-built SVG
   document (checked by {!check_svg}, the trace-lint analogue for the
   CI artifact), and flat JSONL field lists for the corpus codec. *)

type kind = Busy | Wait | Idle

type segment = { g_start_us : int; g_end_us : int; g_kind : kind }

type lane = {
  tl_pid : int;
  tl_tid : int;
  tl_segments : segment list;  (* sorted, contiguous over the window *)
  tl_spans : int;  (* work spans folded into the busy cover *)
  tl_busy_us : int;
  tl_wait_us : int;
  tl_idle_us : int;
  tl_first_us : int;  (* first busy microsecond (window start if none) *)
  tl_last_us : int;  (* last busy microsecond (window start if none) *)
  tl_utilization : float;  (* busy / window *)
  tl_gaps : int list;  (* non-busy gap lengths between busy segments *)
}

type t = {
  t_start_us : int;
  t_end_us : int;
  t_makespan_us : int;
  t_lanes : lane list;  (* sorted by (pid, tid) *)
  t_busy_us : int;
  t_critical_path_us : int;
  t_utilization : float;  (* busy / (lanes * makespan) *)
  t_straggler : (int * int) option;  (* lane whose busy cover ends last *)
  t_straggler_tail_us : int;  (* its lead over the next-latest lane *)
}

(* ------------------------------------------------------------------ *)
(* Interval algebra: sorted, disjoint, non-empty [(start, end)] lists   *)

let interval_union ivs =
  let sorted = List.sort compare (List.filter (fun (a, b) -> b > a) ivs) in
  let rec merge acc = function
    | [] -> List.rev acc
    | iv :: rest -> (
        match acc with
        | (a, b) :: tl when fst iv <= b ->
            merge ((a, max b (snd iv)) :: tl) rest
        | _ -> merge (iv :: acc) rest)
  in
  merge [] sorted

(* [a] minus [b]; both unions as produced by {!interval_union}. *)
let interval_sub a b =
  List.concat_map
    (fun (lo, hi) ->
      let rec cut lo acc = function
        | [] -> if hi > lo then (lo, hi) :: acc else acc
        | (blo, bhi) :: rest ->
            if bhi <= lo then cut lo acc rest
            else if blo >= hi then if hi > lo then (lo, hi) :: acc else acc
            else
              let acc = if blo > lo then (lo, blo) :: acc else acc in
              if bhi < hi then cut bhi acc rest else acc
      in
      List.rev (cut lo [] b))
    a

let interval_total ivs = List.fold_left (fun s (a, b) -> s + (b - a)) 0 ivs

(* ------------------------------------------------------------------ *)
(* Reconstruction                                                       *)

let span_interval (e : Trace.event) = (e.Trace.ts_us, e.Trace.ts_us + e.Trace.dur_us)

(* The lane's top-level spans ({!Trace.nest}) — the fallback work cover
   for traces that never tagged a work category. *)
let top_level lane_spans =
  let top = ref [] in
  Trace.nest lane_spans (fun e ~self_us:_ ~top_level -> if top_level then top := e :: !top);
  List.rev !top

let of_events ?(work_cat = "scenario") ?(alive_name = "worker") events =
  let spans =
    List.filter (fun (e : Trace.event) -> e.Trace.ph = Trace.Complete) events
  in
  match spans with
  | [] -> Error "empty trace: no complete spans to reconstruct lanes from"
  | _ ->
      let window_start =
        List.fold_left (fun m e -> min m (fst (span_interval e))) max_int spans
      in
      let window_end =
        List.fold_left (fun m e -> max m (snd (span_interval e))) min_int spans
      in
      let makespan = max 0 (window_end - window_start) in
      let lane_of (pid, tid) lane_spans =
        let work =
          match
            List.filter (fun (e : Trace.event) -> e.Trace.cat = work_cat) lane_spans
          with
          | [] -> top_level lane_spans
          | ws -> ws
        in
        let busy = interval_union (List.map span_interval work) in
        let alive_spans =
          List.filter (fun (e : Trace.event) -> e.Trace.name = alive_name) lane_spans
        in
        let alive =
          match alive_spans with
          | [] ->
              (* No alive marker: the lane's own extent is its cover. *)
              interval_union (List.map span_interval lane_spans)
          | _ -> interval_union (List.map span_interval alive_spans)
        in
        (* The busy cover may leak past a 0-length alive cover; keep the
           classification total by folding busy into alive. *)
        let alive = interval_union (alive @ busy) in
        let wait = interval_sub alive busy in
        let idle = interval_sub [ (window_start, window_end) ] alive in
        let segments =
          List.sort compare
            (List.map (fun (a, b) -> { g_start_us = a; g_end_us = b; g_kind = Busy }) busy
            @ List.map (fun (a, b) -> { g_start_us = a; g_end_us = b; g_kind = Wait }) wait
            @ List.map (fun (a, b) -> { g_start_us = a; g_end_us = b; g_kind = Idle }) idle)
        in
        let busy_us = interval_total busy in
        let first_us =
          match busy with (a, _) :: _ -> a | [] -> window_start
        in
        let last_us =
          match List.rev busy with (_, b) :: _ -> b | [] -> window_start
        in
        (* Gaps between consecutive busy segments: the idle-gap
           histogram's raw material (queue polls, stragglers' tails are
           measured globally instead). *)
        let gaps =
          let rec walk = function
            | (_, b) :: ((a, _) :: _ as rest) -> (a - b) :: walk rest
            | _ -> []
          in
          List.filter (fun g -> g > 0) (walk busy)
        in
        {
          tl_pid = pid;
          tl_tid = tid;
          tl_segments = segments;
          tl_spans = List.length work;
          tl_busy_us = busy_us;
          tl_wait_us = interval_total wait;
          tl_idle_us = interval_total idle;
          tl_first_us = first_us;
          tl_last_us = last_us;
          tl_utilization =
            (if makespan > 0 then float_of_int busy_us /. float_of_int makespan
             else 0.);
          tl_gaps = gaps;
        }
      in
      (* Input order is irrelevant (events may arrive out of order):
         every computation below is over interval unions. *)
      let lanes = List.map (fun (key, evs) -> lane_of key evs) (Trace.lanes spans) in
      let busy_total = List.fold_left (fun s l -> s + l.tl_busy_us) 0 lanes in
      let critical = List.fold_left (fun m l -> max m l.tl_busy_us) 0 lanes in
      let straggler, tail =
        match
          List.sort
            (fun a b -> compare (b.tl_last_us, b.tl_pid, b.tl_tid) (a.tl_last_us, a.tl_pid, a.tl_tid))
            lanes
        with
        | last :: next :: _ ->
            (Some (last.tl_pid, last.tl_tid), last.tl_last_us - next.tl_last_us)
        | [ only ] -> (Some (only.tl_pid, only.tl_tid), 0)
        | [] -> (None, 0)
      in
      Ok
        {
          t_start_us = window_start;
          t_end_us = window_end;
          t_makespan_us = makespan;
          t_lanes = lanes;
          t_busy_us = busy_total;
          t_critical_path_us = critical;
          t_utilization =
            (let cap = makespan * List.length lanes in
             if cap > 0 then float_of_int busy_total /. float_of_int cap else 0.);
          t_straggler = straggler;
          t_straggler_tail_us = tail;
        }

(* ------------------------------------------------------------------ *)
(* Idle-gap histogram                                                   *)

(* Power-of-two buckets: (upper bound in us, count), ascending, only
   non-empty buckets.  The bucket of gap [g] is the smallest power of
   two >= g. *)
let gap_histogram lane =
  let bucket g =
    let rec up b = if b >= g then b else up (b * 2) in
    up 1
  in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun g ->
      let b = bucket g in
      Hashtbl.replace tbl b (1 + Option.value ~default:0 (Hashtbl.find_opt tbl b)))
    lane.tl_gaps;
  Hashtbl.fold (fun b n acc -> (b, n) :: acc) tbl [] |> List.sort compare

let histogram_label lane =
  match gap_histogram lane with
  | [] -> "-"
  | buckets ->
      String.concat ","
        (List.map
           (fun (b, n) ->
             if b >= 1000 then Printf.sprintf "<=%dms:%d" (b / 1000) n
             else Printf.sprintf "<=%dus:%d" b n)
           buckets)

let max_gap_us lane = List.fold_left max 0 lane.tl_gaps

(* ------------------------------------------------------------------ *)
(* ASCII lane chart                                                     *)

let ascii ?(width = 64) t =
  let width = max 8 width in
  let buf = Buffer.create 1024 in
  let span = max 1 t.t_makespan_us in
  let label_w =
    List.fold_left
      (fun w l -> max w (String.length (Printf.sprintf "%d/%d" l.tl_pid l.tl_tid)))
      4 t.t_lanes
  in
  List.iter
    (fun l ->
      (* One cell per time bucket; busy wins over wait wins over idle,
         so short scenarios remain visible at coarse resolution. *)
      let cells = Bytes.make width ' ' in
      List.iter
        (fun g ->
          let clamp v = max 0 (min (width - 1) v) in
          let c0 = clamp ((g.g_start_us - t.t_start_us) * width / span) in
          let c1 = clamp ((g.g_end_us - 1 - t.t_start_us) * width / span) in
          let ch = match g.g_kind with Busy -> '#' | Wait -> '.' | Idle -> ' ' in
          for i = c0 to c1 do
            let prev = Bytes.get cells i in
            let keep =
              match (prev, ch) with
              | '#', _ -> true
              | '.', ' ' -> true
              | _ -> false
            in
            if not keep then Bytes.set cells i ch
          done)
        l.tl_segments;
      Buffer.add_string buf
        (Printf.sprintf "%-*s |%s| %3.0f%% busy\n" label_w
           (Printf.sprintf "%d/%d" l.tl_pid l.tl_tid)
           (Bytes.to_string cells)
           (100. *. l.tl_utilization)))
    t.t_lanes;
  Buffer.add_string buf
    (Printf.sprintf "%-*s  %s\n" label_w ""
       (Printf.sprintf "# busy  . queue-wait  (makespan %.3fms, pool utilization %.0f%%)"
          (float_of_int t.t_makespan_us /. 1000.)
          (100. *. t.t_utilization)));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* SVG export                                                           *)

let xml_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* A dependency-free lane chart: one <rect> per segment, one row per
   lane.  Coordinates are integers, colors are fixed; the document
   passes {!check_svg}, which CI runs on the emitted artifact. *)
let svg ?(width = 800) t =
  let width = max 100 width in
  let row_h = 18 and row_gap = 4 and label_w = 64 and margin = 8 in
  let chart_w = width - label_w - (2 * margin) in
  let n = List.length t.t_lanes in
  let height = (2 * margin) + (n * (row_h + row_gap)) + 16 in
  let span = max 1 t.t_makespan_us in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        viewBox=\"0 0 %d %d\">\n"
       width height width height);
  Buffer.add_string buf
    (Printf.sprintf
       "<title>%s</title>\n"
       (xml_escape
          (Printf.sprintf "engine lanes: makespan %dus, %d lane(s)" t.t_makespan_us n)));
  List.iteri
    (fun i l ->
      let y = margin + (i * (row_h + row_gap)) in
      Buffer.add_string buf
        (Printf.sprintf
           "<text x=\"%d\" y=\"%d\" font-family=\"monospace\" font-size=\"11\">%s</text>\n"
           margin
           (y + row_h - 5)
           (xml_escape (Printf.sprintf "%d/%d" l.tl_pid l.tl_tid)));
      List.iter
        (fun g ->
          let x0 = (g.g_start_us - t.t_start_us) * chart_w / span in
          let x1 = (g.g_end_us - t.t_start_us) * chart_w / span in
          let w = max 1 (x1 - x0) in
          let fill =
            match g.g_kind with
            | Busy -> "#4c9f70"
            | Wait -> "#e0b23c"
            | Idle -> "#e5e5e5"
          in
          Buffer.add_string buf
            (Printf.sprintf
               "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\"/>\n"
               (label_w + margin + x0) y w row_h fill))
        l.tl_segments)
    t.t_lanes;
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"%d\" y=\"%d\" font-family=\"monospace\" font-size=\"10\">%s</text>\n"
       margin (height - margin)
       (xml_escape
          (Printf.sprintf
             "busy (green) / queue-wait (amber) / idle (grey); pool utilization %.0f%%"
             (100. *. t.t_utilization))));
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* SVG well-formedness (trace-lint for the SVG artifact)                *)

(* A small XML well-formedness scanner, in the spirit of
   {!Trace.check_file}: tags must balance, attributes must be quoted,
   text may only use the five predefined entities.  No DOM is built. *)
let check_svg s =
  let n = String.length s in
  let pos = ref 0 in
  let err msg = Error (Printf.sprintf "at offset %d: %s" !pos msg) in
  let is_name_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '-' || c = '_' || c = ':' || c = '.'
  in
  let read_name () =
    let start = !pos in
    while !pos < n && is_name_char s.[!pos] do
      incr pos
    done;
    String.sub s start (!pos - start)
  in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let check_entity () =
    (* at '&': require one of the predefined entities *)
    let ok e = String.length s - !pos >= String.length e
               && String.sub s !pos (String.length e) = e in
    match
      List.find_opt ok [ "&amp;"; "&lt;"; "&gt;"; "&quot;"; "&apos;" ]
    with
    | Some e ->
        pos := !pos + String.length e;
        true
    | None -> false
  in
  let rec attrs () =
    skip_ws ();
    if !pos >= n then err "unterminated tag"
    else
      match s.[!pos] with
      | '>' | '/' -> Ok ()
      | c when is_name_char c -> (
          let _ = read_name () in
          if !pos >= n || s.[!pos] <> '=' then err "attribute without '='"
          else begin
            incr pos;
            if !pos >= n || s.[!pos] <> '"' then err "unquoted attribute value"
            else begin
              incr pos;
              let bad = ref None in
              while !pos < n && s.[!pos] <> '"' && !bad = None do
                if s.[!pos] = '<' then bad := Some "'<' in attribute value"
                else if s.[!pos] = '&' then begin
                  if not (check_entity ()) then bad := Some "bad entity"
                end
                else incr pos
              done;
              match !bad with
              | Some msg -> err msg
              | None ->
                  if !pos >= n then err "unterminated attribute value"
                  else begin
                    incr pos;
                    attrs ()
                  end
            end
          end)
      | _ -> err "malformed tag"
  in
  let rec scan stack seen_root =
    if !pos >= n then
      match stack with
      | [] -> if seen_root then Ok () else Error "no root element"
      | tag :: _ -> Error (Printf.sprintf "unclosed element <%s>" tag)
    else
      match s.[!pos] with
      | '<' ->
          incr pos;
          if !pos < n && s.[!pos] = '/' then begin
            incr pos;
            let name = read_name () in
            skip_ws ();
            if !pos >= n || s.[!pos] <> '>' then err "malformed closing tag"
            else begin
              incr pos;
              match stack with
              | top :: rest when top = name -> scan rest seen_root
              | top :: _ ->
                  Error (Printf.sprintf "</%s> closes <%s>" name top)
              | [] -> Error (Printf.sprintf "</%s> without opener" name)
            end
          end
          else if !pos < n && s.[!pos] = '?' then begin
            (* <?xml ...?> prolog *)
            match String.index_from_opt s !pos '>' with
            | Some i ->
                pos := i + 1;
                scan stack seen_root
            | None -> err "unterminated processing instruction"
          end
          else begin
            let name = read_name () in
            if name = "" then err "empty tag name"
            else if stack = [] && seen_root then
              Error "content after the root element"
            else
              match attrs () with
              | Error _ as e -> e
              | Ok () ->
                  if s.[!pos] = '/' then begin
                    incr pos;
                    if !pos >= n || s.[!pos] <> '>' then err "malformed self-close"
                    else begin
                      incr pos;
                      scan stack true
                    end
                  end
                  else begin
                    incr pos;
                    scan (name :: stack) true
                  end
          end
      | '&' ->
          if check_entity () then scan stack seen_root else err "bad entity"
      | _ ->
          if stack = [] && not (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
          then err "text outside the root element"
          else begin
            incr pos;
            scan stack seen_root
          end
  in
  pos := 0;
  if String.trim s = "" then Error "empty SVG document"
  else
    match scan [] false with
    | Ok () ->
        (* The artifact contract: the root element is an <svg>. *)
        let t = String.trim s in
        let root_ok =
          String.length t > 5
          && (String.sub t 0 5 = "<svg " || String.sub t 0 5 = "<svg>")
        in
        let rec past_prolog t =
          if String.length t > 2 && String.sub t 0 2 = "<?" then
            match String.index_opt t '>' with
            | Some i ->
                past_prolog
                  (String.trim (String.sub t (i + 1) (String.length t - i - 1)))
            | None -> t
          else t
        in
        let t = past_prolog t in
        if root_ok
           || (String.length t > 5
              && (String.sub t 0 5 = "<svg " || String.sub t 0 5 = "<svg>"))
        then Ok ()
        else Error "root element is not <svg>"
    | Error _ as e -> e

let check_svg_file path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  match check_svg data with
  | Ok () -> Ok ()
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)

(* ------------------------------------------------------------------ *)
(* Flat export + tables                                                 *)

(* One flat object per lane, through the corpus codec.  All wall-clock
   class: timeline exports are timing artifacts and are NOT expected to
   be byte-stable across runs or --jobs counts (unlike the scaling
   report's non-timing projection). *)
let lane_fields t l : (string * Yashme_util.Json.value) list =
  [
    ("pid", `I l.tl_pid);
    ("tid", `I l.tl_tid);
    ("spans", `I l.tl_spans);
    ("busy_us", `I l.tl_busy_us);
    ("wait_us", `I l.tl_wait_us);
    ("idle_us", `I l.tl_idle_us);
    ("utilization", `F l.tl_utilization);
    ("first_us", `I (l.tl_first_us - t.t_start_us));
    ("last_us", `I (l.tl_last_us - t.t_start_us));
    ("max_gap_us", `I (max_gap_us l));
    ("gap_histogram", `S (histogram_label l));
  ]

let fmt_ms us = Printf.sprintf "%.3fms" (float_of_int us /. 1000.)

let pp ppf t =
  Format.fprintf ppf "@[<v>[timeline]";
  Format.fprintf ppf "@,  makespan %s, %d lane(s), critical path %s, pool utilization %.0f%%"
    (fmt_ms t.t_makespan_us) (List.length t.t_lanes)
    (fmt_ms t.t_critical_path_us)
    (100. *. t.t_utilization);
  (match t.t_straggler with
  | Some (pid, tid) when List.length t.t_lanes > 1 ->
      Format.fprintf ppf "@,  straggler lane %d/%d finishes %s after the rest"
        pid tid (fmt_ms t.t_straggler_tail_us)
  | _ -> ());
  let header = [ "pid"; "tid"; "spans"; "busy"; "wait"; "idle"; "util"; "max-gap"; "gaps" ] in
  let rows =
    List.map
      (fun l ->
        [
          string_of_int l.tl_pid;
          string_of_int l.tl_tid;
          string_of_int l.tl_spans;
          fmt_ms l.tl_busy_us;
          fmt_ms l.tl_wait_us;
          fmt_ms l.tl_idle_us;
          Printf.sprintf "%.0f%%" (100. *. l.tl_utilization);
          fmt_ms (max_gap_us l);
          histogram_label l;
        ])
      t.t_lanes
  in
  List.iter (Format.fprintf ppf "@,  %s") (Yashme_util.Pretty.columns ~header rows);
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t
