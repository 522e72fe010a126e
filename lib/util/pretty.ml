let hex64 v = Printf.sprintf "0x%016Lx" v

let pad width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

let rule width = String.make width '-'

let trim_right s =
  let n = String.length s in
  let rec last i = if i > 0 && s.[i - 1] = ' ' then last (i - 1) else i in
  String.sub s 0 (last n)

let table ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make (max ncols 1) 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter measure all;
  let render row =
    row
    |> List.mapi (fun i cell -> pad widths.(i) cell)
    |> String.concat "  "
    |> trim_right
  in
  let total = Array.fold_left ( + ) 0 widths + (2 * max 0 (ncols - 1)) in
  let lines = render header :: rule total :: List.map render rows in
  String.concat "\n" lines

let columns ~header rows =
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w c -> max w (String.length c)) ws row)
      (List.map String.length header)
      rows
  in
  List.map
    (fun row ->
      String.concat "  " (List.map2 (fun w c -> Printf.sprintf "%-*s" w c) widths row))
    (header :: rows)
