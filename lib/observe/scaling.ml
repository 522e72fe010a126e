(* Jobs-sweep analysis: where does parallel wall-clock go?

   The driver runs the same program at several --jobs levels and hands
   this module one {!level} per job count.  The analysis derives
   speedup and parallel efficiency against the lowest-jobs reference
   level, fits an Amdahl serial fraction across the multi-domain
   levels, and sets the lost domain-seconds of each level against the
   named cost centers the engine already attributes: queue-wait,
   snapshot copying, result merge, and the (volatile) GC word deltas.

   The column model follows {!Attribution}'s two classes.  A level's
   scenario/execution/op/race/witness counts and snapshot bytes are
   deterministic work — identical for every --jobs count — so the
   [fields ~timing:false] projection of a sweep is byte-stable and CI
   cmp-able, and {!check} enforces that invariance across the sweep's
   own levels.  Wall clocks, speedup, efficiency, serial fraction and
   GC word deltas are scheduling-dependent and render only in the full
   ([~timing:true]) rows. *)

type level = {
  v_jobs : int;
  v_elapsed_s : float;
  v_cpu_s : float;
  v_scenarios : int;
  v_completed : int;
  v_faulted : int;
  v_executions : int;
  v_ops : int;
  v_races : int;
  v_witnesses : int;
  v_snapshot_bytes : int;  (* px86/snapshot_copy charged units *)
  v_queue_wait_us : int;  (* engine/queue_wait wall *)
  v_snapshot_us : int;  (* px86/snapshot_copy wall *)
  v_merge_us : int;  (* engine/merge wall *)
  v_gc_minor_words : int;  (* volatile: process-global GC deltas *)
  v_gc_major_words : int;
}

type derived = {
  d_speedup : float;  (* T_ref / T_n *)
  d_efficiency : float;  (* speedup / (jobs / ref_jobs) *)
  d_serial_fraction : float option;
      (* per-level Amdahl estimate; None at the reference level *)
  d_lost_s : float;  (* jobs * elapsed - ref elapsed: extra domain-seconds *)
}

type analysis = {
  a_program : string;
  a_reference_jobs : int;
  a_levels : (level * derived) list;  (* ascending jobs *)
  a_serial_fraction : float option;  (* Amdahl fit over jobs > reference *)
  a_loss_centers : (string * float) list;
      (* lost seconds by named center at the highest level, descending *)
}

let finite f =
  match Float.classify_float f with FP_nan | FP_infinite -> 0. | _ -> f

let clamp01 f = Float.max 0. (Float.min 1. f)

(* Amdahl per-level estimate: with T(n) = T1 * (s + (1-s)/n), the
   serial fraction observed at effective parallelism [n] is
   s = (n/speedup - 1) / (n - 1). *)
let amdahl_fraction ~n ~speedup =
  if n <= 1. || speedup <= 0. then None
  else Some (clamp01 ((n /. speedup -. 1.) /. (n -. 1.)))

let analyze ~program levels =
  match List.sort (fun a b -> compare a.v_jobs b.v_jobs) levels with
  | [] -> Error "scaling analysis needs at least one jobs level"
  | reference :: _ as sorted ->
      let dup =
        let rec find = function
          | a :: (b :: _ as rest) ->
              if a.v_jobs = b.v_jobs then Some a.v_jobs else find rest
          | _ -> None
        in
        find sorted
      in
      (match dup with
      | Some j -> Error (Printf.sprintf "duplicate jobs level %d" j)
      | None ->
          let t_ref = reference.v_elapsed_s in
          let derive l =
            let n =
              float_of_int l.v_jobs /. float_of_int (max 1 reference.v_jobs)
            in
            let speedup =
              if l.v_elapsed_s > 0. then finite (t_ref /. l.v_elapsed_s) else 0.
            in
            let efficiency = if n > 0. then finite (speedup /. n) else 0. in
            {
              d_speedup = speedup;
              d_efficiency = efficiency;
              d_serial_fraction = amdahl_fraction ~n ~speedup;
              d_lost_s =
                Float.max 0.
                  ((float_of_int l.v_jobs *. l.v_elapsed_s) -. t_ref);
            }
          in
          let pairs = List.map (fun l -> (l, derive l)) sorted in
          let estimates =
            List.filter_map (fun (_, d) -> d.d_serial_fraction) pairs
          in
          let fitted =
            match estimates with
            | [] -> None
            | es ->
                Some (List.fold_left ( +. ) 0. es /. float_of_int (List.length es))
          in
          let loss_centers =
            match List.rev pairs with
            | [] -> []
            | (top, d) :: _ ->
                let s us = float_of_int us /. 1_000_000. in
                let named =
                  [
                    ("engine/queue_wait", s top.v_queue_wait_us);
                    ("px86/snapshot_copy", s top.v_snapshot_us);
                    ("engine/merge", s top.v_merge_us);
                  ]
                in
                let accounted =
                  List.fold_left (fun acc (_, v) -> acc +. v) 0. named
                in
                let rows =
                  named @ [ ("other", Float.max 0. (d.d_lost_s -. accounted)) ]
                in
                List.sort (fun (_, a) (_, b) -> compare b a) rows
          in
          Ok
            {
              a_program = program;
              a_reference_jobs = reference.v_jobs;
              a_levels = pairs;
              a_serial_fraction = fitted;
              a_loss_centers = loss_centers;
            })

(* ------------------------------------------------------------------ *)
(* The two-class export                                                 *)

(* Flat JSONL row per level (corpus-codec shape).  The [timing:false]
   prefix is the jobs-invariant projection; [timing:true] appends the
   wall-clock class after it, so projection consumers keep a stable
   field prefix. *)
let fields ?(timing = true) ~program (l, d) : (string * Yashme_util.Json.value) list =
  let invariant =
    [
      ("program", `S program);
      ("jobs", `I l.v_jobs);
      ("scenarios", `I l.v_scenarios);
      ("completed", `I l.v_completed);
      ("faulted", `I l.v_faulted);
      ("executions", `I l.v_executions);
      ("ops", `I l.v_ops);
      ("races", `I l.v_races);
      ("witnesses", `I l.v_witnesses);
      ("snapshot_bytes", `I l.v_snapshot_bytes);
    ]
  in
  if not timing then invariant
  else
    invariant
    @ [
        ("elapsed_s", `F l.v_elapsed_s);
        ("cpu_s", `F l.v_cpu_s);
        ("speedup", `F d.d_speedup);
        ("efficiency", `F d.d_efficiency);
        ( "serial_fraction",
          match d.d_serial_fraction with Some s -> `F s | None -> `Null );
        ("lost_s", `F d.d_lost_s);
        ("queue_wait_s", `F (float_of_int l.v_queue_wait_us /. 1_000_000.));
        ("snapshot_s", `F (float_of_int l.v_snapshot_us /. 1_000_000.));
        ("merge_s", `F (float_of_int l.v_merge_us /. 1_000_000.));
        ("gc_minor_words", `I l.v_gc_minor_words);
        ("gc_major_words", `I l.v_gc_major_words);
      ]

(* The sweep's own determinism check: every level's non-timing
   projection (minus the [jobs] identity) must equal the reference
   level's.  Names the first diverging field, so a violation of the
   engine's determinism contract is diagnosable from the CI log. *)
let check ~program levels =
  match List.sort (fun a b -> compare a.v_jobs b.v_jobs) levels with
  | [] -> Error "scaling check needs at least one jobs level"
  | reference :: rest ->
      let zero = { d_speedup = 0.; d_efficiency = 0.; d_serial_fraction = None; d_lost_s = 0. } in
      let projection l =
        List.filter
          (fun (k, _) -> k <> "jobs")
          (fields ~timing:false ~program (l, zero))
      in
      let ref_proj = projection reference in
      let rec scan = function
        | [] -> Ok ()
        | l :: rest -> (
            let proj = projection l in
            match
              List.find_opt
                (fun ((k, v), (_, v')) -> ignore k; v <> v')
                (List.combine ref_proj proj)
            with
            | Some ((k, _), _) ->
                Error
                  (Printf.sprintf
                     "non-timing field %S differs between jobs=%d and jobs=%d"
                     k reference.v_jobs l.v_jobs)
            | None -> scan rest)
      in
      scan rest

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

let fmt_s v = Printf.sprintf "%.4fs" v
let fmt_words w =
  if w >= 1_000_000 then Printf.sprintf "%.1fMw" (float_of_int w /. 1_000_000.)
  else if w >= 1_000 then Printf.sprintf "%.1fkw" (float_of_int w /. 1_000.)
  else Printf.sprintf "%dw" w

let pp ppf a =
  Format.fprintf ppf "@[<v>%s scaling (reference jobs=%d):" a.a_program
    a.a_reference_jobs;
  let header =
    [ "jobs"; "elapsed"; "speedup"; "efficiency"; "queue-wait"; "snapshot";
      "merge"; "gc-minor"; "lost" ]
  in
  let rows =
    List.map
      (fun (l, d) ->
        [
          string_of_int l.v_jobs;
          fmt_s l.v_elapsed_s;
          Printf.sprintf "%.2fx" d.d_speedup;
          Printf.sprintf "%.1f%%" (100. *. d.d_efficiency);
          fmt_s (float_of_int l.v_queue_wait_us /. 1_000_000.);
          fmt_s (float_of_int l.v_snapshot_us /. 1_000_000.);
          fmt_s (float_of_int l.v_merge_us /. 1_000_000.);
          fmt_words l.v_gc_minor_words;
          (if l.v_jobs = a.a_reference_jobs then "-" else fmt_s d.d_lost_s);
        ])
      a.a_levels
  in
  List.iter (Format.fprintf ppf "@,  %s") (Yashme_util.Pretty.columns ~header rows);
  (match a.a_serial_fraction with
  | Some s -> Format.fprintf ppf "@,  serial fraction (Amdahl fit): %.2f" s
  | None -> Format.fprintf ppf "@,  serial fraction: n/a (single jobs level)");
  (match a.a_loss_centers with
  | [] -> ()
  | centers ->
      Format.fprintf ppf "@,  loss centers at jobs=%d: %s"
        (match List.rev a.a_levels with (l, _) :: _ -> l.v_jobs | [] -> 0)
        (String.concat ", "
           (List.map (fun (n, v) -> Printf.sprintf "%s %s" n (fmt_s v)) centers)));
  Format.fprintf ppf "@]"

let to_string a = Format.asprintf "%a" pp a
