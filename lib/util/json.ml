type value = [ `S of string | `I of int | `B of bool | `F of float | `Null ]
type t = [ value | `A of t list | `O of (string * t) list ]

(* ------------------------------------------------------------------ *)
(* Encoding                                                             *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* %.17g round-trips every finite float through float_of_string; the
   artifacts never carry non-finite numbers. *)
let encode_value = function
  | `S s -> escape s
  | `I n -> string_of_int n
  | `B true -> "true"
  | `B false -> "false"
  | `F f -> Printf.sprintf "%.17g" f
  | `Null -> "null"

let encode_obj fields =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (escape k);
      Buffer.add_char buf ':';
      Buffer.add_string buf (encode_value v))
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: RFC 8259, recursive descent                                 *)

exception Bad of int * string

(* Bounds the recursion, so a hostile "[[[[..." input is an [Error]
   rather than a stack overflow. *)
let max_depth = 512

let parse s : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "invalid literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - 48
      | 'a' .. 'f' -> Char.code c - 87
      | 'A' .. 'F' -> Char.code c - 55
      | _ -> fail (Printf.sprintf "bad \\u escape %S" (String.sub s !pos 4))
    in
    let cp = ref 0 in
    for i = 0 to 3 do
      cp := (!cp lsl 4) lor digit s.[!pos + i]
    done;
    pos := !pos + 4;
    !cp
  in
  (* A \u escape, with astral codepoints as a surrogate pair of two
     consecutive escapes; a lone or mismatched surrogate is an error. *)
  let codepoint () =
    let cp = hex4 () in
    if cp >= 0xdc00 && cp <= 0xdfff then
      fail (Printf.sprintf "unpaired low surrogate \\u%04X" cp)
    else if cp < 0xd800 || cp > 0xdbff then cp
    else if not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
      fail (Printf.sprintf "unpaired high surrogate \\u%04X" cp)
    else begin
      pos := !pos + 2;
      let lo = hex4 () in
      if lo < 0xdc00 || lo > 0xdfff then
        fail
          (Printf.sprintf "high surrogate \\u%04X followed by non-low \\u%04X" cp lo);
      0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
    end
  in
  (* Bytes at or above 0x80 pass through verbatim, so every OCaml
     string survives an encode/parse round trip. *)
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
          incr pos;
          Buffer.contents buf
      | Some '\\' ->
          incr pos;
          (match peek () with
          | Some (('"' | '\\' | '/') as c) ->
              incr pos;
              Buffer.add_char buf c
          | Some 'b' -> incr pos; Buffer.add_char buf '\b'
          | Some 'f' -> incr pos; Buffer.add_char buf '\012'
          | Some 'n' -> incr pos; Buffer.add_char buf '\n'
          | Some 'r' -> incr pos; Buffer.add_char buf '\r'
          | Some 't' -> incr pos; Buffer.add_char buf '\t'
          | Some 'u' ->
              incr pos;
              Buffer.add_utf_8_uchar buf (Uchar.of_int (codepoint ()))
          | Some c -> fail (Printf.sprintf "bad escape \\%c" c)
          | None -> fail "unterminated string");
          loop ()
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
          incr pos;
          Buffer.add_char buf c;
          loop ()
    in
    loop ()
  in
  let digits () =
    let start = !pos in
    while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
      incr pos
    done;
    if !pos = start then fail "expected a digit"
  in
  (* Optional minus, then 0 or a digit run without a leading zero, an
     optional fraction and an optional exponent; an integer exactly
     when there is neither a fraction nor an exponent. *)
  let number () : t =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    if peek () = Some '0' then incr pos else digits ();
    let integral = ref true in
    if peek () = Some '.' then begin
      integral := false;
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        integral := false;
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    let tok = String.sub s start (!pos - start) in
    let out_of_range () =
      pos := start;
      fail (Printf.sprintf "number %s out of range" tok)
    in
    if !integral then
      match int_of_string_opt tok with Some i -> `I i | None -> out_of_range ()
    else
      match float_of_string_opt tok with
      | Some f when Float.is_finite f -> `F f
      | _ -> out_of_range ()
  in
  let rec value depth : t =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          `O []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let acc = (k, value (depth + 1)) :: acc in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members acc
            | Some '}' ->
                incr pos;
                `O (List.rev acc)
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          `A []
        end
        else
          let rec elements acc =
            let acc = value (depth + 1) :: acc in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elements acc
            | Some ']' ->
                incr pos;
                `A (List.rev acc)
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some '"' -> `S (string_lit ())
    | Some 't' -> literal "true" (`B true)
    | Some 'f' -> literal "false" (`B false)
    | Some 'n' -> literal "null" `Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
    | None -> fail "unexpected end of input"
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos < n then fail "trailing characters after the value";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)

let decode_obj s =
  match parse s with
  | Error e -> Error e
  | Ok (`O members) ->
      let rec flat acc = function
        | [] -> Ok (List.rev acc)
        | (k, (#value as v)) :: rest -> flat ((k, v) :: acc) rest
        | (k, (`A _ | `O _)) :: _ ->
            Error (Printf.sprintf "field %S: nested value in a flat object" k)
      in
      flat [] members
  | Ok _ -> Error "expected a JSON object"

(* ------------------------------------------------------------------ *)
(* Files                                                                *)

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | data -> Ok data
  | exception Sys_error e -> Error e

let empty path what = Error (Printf.sprintf "%s:1: empty %s" path what)

let load ~what path =
  match read path with
  | Error e -> Error e
  | Ok data when String.trim data = "" -> empty path what
  | Ok data -> Result.map_error (Printf.sprintf "%s: %s" path) (parse data)

let load_lines ~what path decode =
  let rec loop lineno acc = function
    | [] -> if acc = [] then empty path what else Ok (List.rev acc)
    | l :: rest when String.trim l = "" -> loop (lineno + 1) acc rest
    | l :: rest -> (
        match decode l with
        | Ok x -> loop (lineno + 1) (x :: acc) rest
        | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e))
  in
  Result.bind (read path) (fun data -> loop 1 [] (String.split_on_char '\n' data))

(* ------------------------------------------------------------------ *)
(* Field readers                                                        *)

let field conv what fields key =
  match List.assoc_opt key fields with
  | None -> Error (Printf.sprintf "missing field %S" key)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S: expected %s" key what))

let field_opt conv what fields key =
  match List.assoc_opt key fields with
  | None | Some `Null -> Ok None
  | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "field %S: expected %s or null" key what))

let as_str = function `S s -> Some s | _ -> None
let as_int = function `I i -> Some i | _ -> None
let as_bool = function `B b -> Some b | _ -> None
let as_float = function `F f -> Some f | `I i -> Some (float_of_int i) | _ -> None

let str fields key = field as_str "a string" fields key
let int fields key = field as_int "an integer" fields key
let bool fields key = field as_bool "a bool" fields key
let float fields key = field as_float "a number" fields key
let int_opt fields key = field_opt as_int "an integer" fields key
let float_opt fields key = field_opt as_float "a number" fields key

let version ~key ~oldest ~current fields =
  match int fields key with
  | Error e -> Error e
  | Ok v when v > current ->
      Error
        (Printf.sprintf "%s %d is newer than this build reads (%d-%d)" key v
           oldest current)
  | Ok v when v < oldest ->
      Error
        (Printf.sprintf "%s %d is older than this build reads (%d-%d)" key v
           oldest current)
  | Ok v -> Ok v
