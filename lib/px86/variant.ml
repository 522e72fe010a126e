(* A persistency-model variant: the knobs of the px86 storage system
   that competing formalizations disagree on.  [strict_tso] is the
   machine's historical behaviour; every other descriptor perturbs one
   axis so litmus tests can localize divergence to a single rule. *)

type sb_drain = Drain_tso | Drain_fifo
type fence_semantics = Fence_full | Fence_nop
type fb_apply = Fb_at_fence | Fb_immediate
type persist_order = Per_line | Epoch_fenced

type t = {
  sb_drain : sb_drain;
  sb_bypass : bool;
  fence : fence_semantics;
  fb_apply : fb_apply;
  persist_order : persist_order;
}

let strict_tso =
  {
    sb_drain = Drain_tso;
    sb_bypass = true;
    fence = Fence_full;
    fb_apply = Fb_at_fence;
    persist_order = Per_line;
  }

let sb_bypass_off = { strict_tso with sb_bypass = false }
let sb_fifo = { strict_tso with sb_drain = Drain_fifo }
let fence_nop = { strict_tso with fence = Fence_nop }
let epoch = { strict_tso with persist_order = Epoch_fenced }
let relaxed = { strict_tso with fb_apply = Fb_immediate }

let builtins =
  [
    ( "strict-tso", strict_tso,
      "px86 as formalized by Raad et al.: TSO store buffers with load \
       bypassing, flush buffers drained at fences, per-line persist order" );
    ( "sb-bypass-off", sb_bypass_off,
      "loads never forward from the own store buffer; a load stalls until \
       the buffer drains (sequentially-consistent reads)" );
    ( "sb-fifo", sb_fifo,
      "random store-buffer drain evicts strictly in FIFO order, disabling \
       the Table-1 flush/store reorderings" );
    ( "fence-nop", fence_nop,
      "sfence/mfence keep their volatile ordering but do NOT drain flush \
       or write-combining buffers (a common implementation bug)" );
    ( "epoch", epoch,
      "epoch persistency: a fence persists everything committed before it, \
       so persists are ordered only across fences" );
    ( "relaxed", relaxed,
      "CXL-flavoured: clwb applies to the persistence domain immediately \
       and unordered, without waiting for a fence" );
  ]

let describe v = List.find_opt (fun (_, b, _) -> b = v) builtins

(* ------------------------------------------------------------------ *)
(* Stable labels.  Built-ins serialize by name; any other descriptor
   falls back to a field-by-field "custom:" form so every value of [t]
   round-trips through [of_label]. *)

let sb_drain_label = function Drain_tso -> "tso" | Drain_fifo -> "fifo"
let fence_label = function Fence_full -> "full" | Fence_nop -> "nop"
let fb_apply_label = function Fb_at_fence -> "at-fence" | Fb_immediate -> "immediate"

let persist_order_label = function
  | Per_line -> "per-line"
  | Epoch_fenced -> "epoch-fenced"

let field_form v =
  Printf.sprintf "custom:sb=%s,bypass=%s,fence=%s,fb=%s,persist=%s"
    (sb_drain_label v.sb_drain)
    (if v.sb_bypass then "on" else "off")
    (fence_label v.fence) (fb_apply_label v.fb_apply)
    (persist_order_label v.persist_order)

let label v =
  match describe v with Some (n, _, _) -> n | None -> field_form v

let split_fields s =
  String.split_on_char ',' s
  |> List.map (fun kv ->
         match String.index_opt kv '=' with
         | Some i ->
             Some
               ( String.sub kv 0 i,
                 String.sub kv (i + 1) (String.length kv - i - 1) )
         | None -> None)

let of_field_form s =
  let ( let* ) = Option.bind in
  let fields = split_fields s in
  let* fields =
    if List.mem None fields then None else Some (List.filter_map Fun.id fields)
  in
  let* _ = if List.length fields = 5 then Some () else None in
  let find k = List.assoc_opt k fields in
  let* sb_drain =
    match find "sb" with
    | Some "tso" -> Some Drain_tso
    | Some "fifo" -> Some Drain_fifo
    | _ -> None
  in
  let* sb_bypass =
    match find "bypass" with
    | Some "on" -> Some true
    | Some "off" -> Some false
    | _ -> None
  in
  let* fence =
    match find "fence" with
    | Some "full" -> Some Fence_full
    | Some "nop" -> Some Fence_nop
    | _ -> None
  in
  let* fb_apply =
    match find "fb" with
    | Some "at-fence" -> Some Fb_at_fence
    | Some "immediate" -> Some Fb_immediate
    | _ -> None
  in
  let* persist_order =
    match find "persist" with
    | Some "per-line" -> Some Per_line
    | Some "epoch-fenced" -> Some Epoch_fenced
    | _ -> None
  in
  Some { sb_drain; sb_bypass; fence; fb_apply; persist_order }

let custom_prefix = "custom:"

let of_label s =
  match List.find_opt (fun (n, _, _) -> n = s) builtins with
  | Some (_, v, _) -> Some v
  | None ->
      let pl = String.length custom_prefix in
      if String.length s > pl && String.sub s 0 pl = custom_prefix then
        of_field_form (String.sub s pl (String.length s - pl))
      else None

let is_default v = v = strict_tso
let default_label = label strict_tso

