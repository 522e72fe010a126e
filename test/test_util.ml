(* Unit and property tests for the utility library: vector clocks,
   the deterministic RNG, and table rendering. *)

module Clockvec = Yashme_util.Clockvec
module Rng = Yashme_util.Rng
module Pretty = Yashme_util.Pretty

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Clockvec unit tests                                                  *)

let test_empty () =
  check_int "empty get" 0 (Clockvec.get Clockvec.empty 3);
  check "empty leq itself" true (Clockvec.leq Clockvec.empty Clockvec.empty);
  check "empty equals of_list []" true (Clockvec.equal Clockvec.empty (Clockvec.of_list []))

let test_set_get () =
  let cv = Clockvec.set Clockvec.empty 2 5 in
  check_int "set then get" 5 (Clockvec.get cv 2);
  check_int "other component zero" 0 (Clockvec.get cv 1);
  let cv0 = Clockvec.set cv 2 0 in
  check "setting zero removes" true (Clockvec.equal cv0 Clockvec.empty)

let test_set_negative () =
  Alcotest.check_raises "negative clock" (Invalid_argument "Clockvec.set: negative clock")
    (fun () -> ignore (Clockvec.set Clockvec.empty 0 (-1)))

let test_set_negative_tid () =
  Alcotest.check_raises "negative thread id"
    (Invalid_argument "Clockvec.set: negative thread id")
    (fun () -> ignore (Clockvec.set Clockvec.empty (-1) 1));
  check_int "get of a negative tid" 0 (Clockvec.get (Clockvec.of_list [ (0, 2) ]) (-1))

let test_tick () =
  let cv = Clockvec.tick (Clockvec.tick Clockvec.empty 1) 1 in
  check_int "tick twice" 2 (Clockvec.get cv 1)

let test_join () =
  let a = Clockvec.of_list [ (0, 3); (1, 1) ] in
  let b = Clockvec.of_list [ (1, 4); (2, 2) ] in
  let j = Clockvec.join a b in
  check_int "join keeps max (0)" 3 (Clockvec.get j 0);
  check_int "join keeps max (1)" 4 (Clockvec.get j 1);
  check_int "join keeps max (2)" 2 (Clockvec.get j 2)

let test_orders () =
  let a = Clockvec.of_list [ (0, 1) ] in
  let b = Clockvec.of_list [ (0, 2); (1, 1) ] in
  let c = Clockvec.of_list [ (1, 5) ] in
  check "a leq b" true (Clockvec.leq a b);
  check "b not leq a" false (Clockvec.leq b a);
  check "a lt b" true (Clockvec.lt a b);
  check "a not lt a" false (Clockvec.lt a a);
  check "a concurrent c" true (Clockvec.concurrent a c);
  check "a not concurrent b" false (Clockvec.concurrent a b)

let test_to_list_sorted () =
  let cv = Clockvec.of_list [ (5, 1); (0, 2); (3, 9) ] in
  Alcotest.(check (list (pair int int)))
    "sorted bindings" [ (0, 2); (3, 9); (5, 1) ] (Clockvec.to_list cv)

let test_pp () =
  let cv = Clockvec.of_list [ (0, 2); (1, 7) ] in
  Alcotest.(check string) "rendering" "<0:2, 1:7>" (Format.asprintf "%a" Clockvec.pp cv)

(* ------------------------------------------------------------------ *)
(* Clockvec properties                                                  *)

let cv_gen =
  QCheck.Gen.(
    map Clockvec.of_list
      (list_size (int_bound 6) (pair (int_bound 4) (int_bound 20))))

let cv_arb = QCheck.make ~print:(Format.asprintf "%a" Clockvec.pp) cv_gen

let prop_join_commutative =
  QCheck.Test.make ~name:"join commutative" ~count:200 (QCheck.pair cv_arb cv_arb)
    (fun (a, b) -> Clockvec.equal (Clockvec.join a b) (Clockvec.join b a))

let prop_join_associative =
  QCheck.Test.make ~name:"join associative" ~count:200
    (QCheck.triple cv_arb cv_arb cv_arb) (fun (a, b, c) ->
      Clockvec.equal
        (Clockvec.join a (Clockvec.join b c))
        (Clockvec.join (Clockvec.join a b) c))

let prop_join_idempotent =
  QCheck.Test.make ~name:"join idempotent" ~count:200 cv_arb (fun a ->
      Clockvec.equal (Clockvec.join a a) a)

let prop_join_upper_bound =
  QCheck.Test.make ~name:"join is an upper bound" ~count:200 (QCheck.pair cv_arb cv_arb)
    (fun (a, b) ->
      let j = Clockvec.join a b in
      Clockvec.leq a j && Clockvec.leq b j)

let prop_leq_antisymmetric =
  QCheck.Test.make ~name:"leq antisymmetric" ~count:200 (QCheck.pair cv_arb cv_arb)
    (fun (a, b) -> (not (Clockvec.leq a b && Clockvec.leq b a)) || Clockvec.equal a b)

let prop_tick_increases =
  QCheck.Test.make ~name:"tick strictly increases" ~count:200
    (QCheck.pair cv_arb QCheck.(int_bound 4)) (fun (a, tid) ->
      Clockvec.lt a (Clockvec.tick a tid))

(* Vectors built the way the machine and the detector build them: sets
   (to zero too) and joins, over tids 0-3. *)
type cv_op = Set of int * int | Join_with of (int * int) list

let cv_op_gen =
  QCheck.Gen.(
    let tid = int_bound 3 and clk = int_bound 4 in
    frequency
      [
        (3, map2 (fun t c -> Set (t, c)) tid clk);
        (1, map (fun l -> Join_with l) (list_size (int_bound 3) (pair tid clk)));
      ])

let build ops =
  List.fold_left
    (fun cv -> function
      | Set (tid, clk) -> Clockvec.set cv tid clk
      | Join_with l -> Clockvec.join cv (Clockvec.of_list l))
    Clockvec.empty ops

let ops_arb = QCheck.make QCheck.Gen.(list_size (int_bound 8) cv_op_gen)

(* Races carry store clocks and are compared structurally (the engine's
   signatures, witness replay, bench/perf's traced replay): a vector
   must have one representation. *)
let prop_canonical =
  QCheck.Test.make ~name:"equal iff compare = 0, equal hashes" ~count:1000
    (QCheck.pair ops_arb ops_arb) (fun (a, b) ->
      let a = build a and b = build b in
      Clockvec.equal a b = (compare a b = 0)
      && ((not (Clockvec.equal a b)) || Hashtbl.hash a = Hashtbl.hash b))

module Ref_cv = Detector_reference.Clockvec

(* A pool of four vectors run through random operations in both the
   array representation and the map-based reference model. *)
type pool_op =
  | P_set of int * int * int
  | P_tick of int * int
  | P_join of int * int * int
  | P_leq of int * int
  | P_get of int * int

let pool_op_gen =
  QCheck.Gen.(
    let slot = int_bound 3 and tid = int_bound 3 in
    oneof
      [
        map3 (fun i t c -> P_set (i, t, c)) slot tid (int_bound 5);
        map2 (fun i t -> P_tick (i, t)) slot tid;
        map3 (fun i j k -> P_join (i, j, k)) slot slot slot;
        map2 (fun i j -> P_leq (i, j)) slot slot;
        map2 (fun i t -> P_get (i, t)) slot (int_range (-1) 5);
      ])

let prop_matches_reference =
  QCheck.Test.make ~name:"array clocks = map-based reference" ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_bound 40) pool_op_gen))
    (fun ops ->
      let cvs = Array.make 4 Clockvec.empty and refs = Array.make 4 Ref_cv.empty in
      let same i = Clockvec.to_list cvs.(i) = Ref_cv.to_list refs.(i) in
      List.for_all
        (fun op ->
          (match op with
          | P_set (i, tid, clk) ->
              cvs.(i) <- Clockvec.set cvs.(i) tid clk;
              refs.(i) <- Ref_cv.set refs.(i) tid clk;
              true
          | P_tick (i, tid) ->
              cvs.(i) <- Clockvec.tick cvs.(i) tid;
              refs.(i) <- Ref_cv.tick refs.(i) tid;
              true
          | P_join (i, j, k) ->
              cvs.(k) <- Clockvec.join cvs.(i) cvs.(j);
              refs.(k) <- Ref_cv.join refs.(i) refs.(j);
              true
          | P_leq (i, j) -> Clockvec.leq cvs.(i) cvs.(j) = Ref_cv.leq refs.(i) refs.(j)
          | P_get (i, tid) -> Clockvec.get cvs.(i) tid = Ref_cv.get refs.(i) tid)
          && List.for_all same [ 0; 1; 2; 3 ]
          && Clockvec.equal cvs.(0) cvs.(1) = Ref_cv.equal refs.(0) refs.(1))
        ops)

(* An accumulator joined in place reads back as the join of everything
   joined into it; a frozen copy does not follow later joins. *)
let prop_accumulator =
  QCheck.Test.make ~name:"join_into = join, freeze is a snapshot" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 6) (list_size (int_bound 8) cv_op_gen)))
    (fun vecs ->
      let vecs = List.map build vecs in
      let acc = Array.make 6 0 in
      let joined = ref Clockvec.empty and ok = ref true in
      List.iter
        (fun cv ->
          let before = Clockvec.freeze acc ~off:2 ~len:4 in
          let expected = !joined in
          Clockvec.join_into acc ~off:2 cv;
          joined := Clockvec.join !joined cv;
          ok :=
            !ok
            && Clockvec.equal before expected
            && Clockvec.equal (Clockvec.freeze acc ~off:2 ~len:4) !joined
            && acc.(0) = 0 && acc.(1) = 0)
        vecs;
      !ok)

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 50 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let r = Rng.create 2 in
  for _ = 1 to 1000 do
    let v = Rng.float r in
    check "float in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_copy_independent () =
  let a = Rng.create 3 in
  let b = Rng.copy a in
  check_int "copies agree" (Rng.int a 100) (Rng.int b 100)

let test_rng_split_differs () =
  let a = Rng.create 4 in
  let b = Rng.split a in
  let sa = List.init 10 (fun _ -> Rng.int a 1000) in
  let sb = List.init 10 (fun _ -> Rng.int b 1000) in
  check "split streams differ" true (sa <> sb)

let test_rng_pick () =
  let r = Rng.create 5 in
  for _ = 1 to 100 do
    check "pick from list" true (List.mem (Rng.pick r [ 1; 2; 3 ]) [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "pick empty" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Rng.pick r ([] : int list)))

let test_rng_shuffle_permutation () =
  let r = Rng.create 6 in
  let xs = [ 1; 2; 3; 4; 5; 6; 7 ] in
  let ys = Rng.shuffle r xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort compare ys)

let test_rng_bad_bound () =
  let r = Rng.create 8 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

(* ------------------------------------------------------------------ *)
(* Pretty                                                               *)

let test_pad () =
  Alcotest.(check string) "pads" "ab  " (Pretty.pad 4 "ab");
  Alcotest.(check string) "no truncation" "abcdef" (Pretty.pad 3 "abcdef")

let test_hex () =
  Alcotest.(check string) "hex64" "0x00000000deadbeef" (Pretty.hex64 0xdeadbeefL)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_table () =
  let t = Pretty.table ~header:[ "a"; "bb" ] [ [ "ccc"; "d" ] ] in
  check "has rule line" true (String.contains t '-');
  check "contains header" true (contains ~needle:"bb" t);
  check "contains cell" true (contains ~needle:"ccc" t);
  Alcotest.(check int) "three lines" 3 (List.length (String.split_on_char '\n' t))

let () =
  Alcotest.run "util"
    [
      ( "clockvec",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "set/get" `Quick test_set_get;
          Alcotest.test_case "set negative" `Quick test_set_negative;
          Alcotest.test_case "tick" `Quick test_tick;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "orders" `Quick test_orders;
          Alcotest.test_case "to_list sorted" `Quick test_to_list_sorted;
          Alcotest.test_case "pp" `Quick test_pp;
          Alcotest.test_case "negative tid" `Quick test_set_negative_tid;
        ] );
      ( "clockvec-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_join_commutative;
            prop_join_associative;
            prop_join_idempotent;
            prop_join_upper_bound;
            prop_leq_antisymmetric;
            prop_tick_increases;
            prop_canonical;
            prop_matches_reference;
            prop_accumulator;
          ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split_differs;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "bad bound" `Quick test_rng_bad_bound;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "pad" `Quick test_pad;
          Alcotest.test_case "hex" `Quick test_hex;
          Alcotest.test_case "table" `Quick test_table;
        ] );
    ]
