type reference = {
  r_init : (string * string) list;
  r_final : (string * string) list;
  r_invariants : Invariant.t list;
}

type violation = { v_key : string; v_detail : string }

(* Classification of one tracked field in an observation: the init
   value, the final value, neither (a value violation), or absent. *)
type state = Old | New | Torn | Unknown

(* Only fields that changed between the two crash-free observations are
   tracked: a field equal in init and final cannot witness an ordering
   and would classify every crash state as both Old and New. *)
let tracked r =
  List.filter_map
    (fun (f, init) ->
      match List.assoc_opt f r.r_final with
      | Some final when final <> init -> Some (f, (init, final))
      | _ -> None)
    r.r_init

let check r ~observed =
  let tracked = tracked r in
  let state f =
    match List.assoc_opt f tracked with
    | None -> Unknown
    | Some (init, final) -> (
        match List.assoc_opt f observed with
        | None -> Unknown
        | Some v when v = final -> New
        | Some v when v = init -> Old
        | Some _ -> Torn)
  in
  let values =
    List.filter_map
      (fun (f, (init, final)) ->
        match state f with
        | Torn ->
            let v =
              match List.assoc_opt f observed with Some v -> v | None -> "?"
            in
            Some
              {
                v_key = Printf.sprintf "value:%s" (Invariant.escape f);
                v_detail =
                  Printf.sprintf
                    "field %s observed %S, reachable only as %S (old) or %S \
                     (new)"
                    f v init final;
              }
        | Old | New | Unknown -> None)
      tracked
  in
  let invariants =
    List.filter_map
      (fun inv ->
        match inv with
        | Invariant.Order { before; after } -> (
            match (state before, state after) with
            | Old, New ->
                Some
                  {
                    v_key =
                      Printf.sprintf "order:%s<%s" (Invariant.escape before)
                        (Invariant.escape after);
                    v_detail =
                      Printf.sprintf
                        "%s persisted before %s in every reference run, but \
                         the crash image has %s new while %s is still old"
                        before after after before;
                  }
            | _ -> None)
        | Invariant.Atomic { fields } ->
            let states = List.map (fun f -> (f, state f)) fields in
            let old_f = List.filter (fun (_, s) -> s = Old) states in
            let new_f = List.filter (fun (_, s) -> s = New) states in
            if old_f <> [] && new_f <> [] then
              Some
                {
                  v_key =
                    Printf.sprintf "atomic:%s"
                      (String.concat ","
                         (List.map Invariant.escape fields));
                  v_detail =
                    Printf.sprintf
                      "fields {%s} update atomically in every reference run, \
                       but the crash image split them: %s old, %s new"
                      (String.concat ", " fields)
                      (String.concat ", " (List.map fst old_f))
                      (String.concat ", " (List.map fst new_f));
                }
            else None)
      r.r_invariants
  in
  List.sort_uniq
    (fun a b ->
      match String.compare a.v_key b.v_key with
      | 0 -> String.compare a.v_detail b.v_detail
      | c -> c)
    (values @ invariants)
