(* Leveled logging surfaced through the observe layer: printed to
   stderr when at or above the current threshold. *)

type level = Off | Warn | Info | Debug

let int_of_level = function Off -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let level_of_int = function
  | 0 -> Off
  | 1 -> Warn
  | 2 -> Info
  | _ -> Debug

(* Threshold as an int so readers are a single Atomic.get. *)
let threshold = Atomic.make (int_of_level Warn)
let set_level l = Atomic.set threshold (int_of_level l)
let level () = level_of_int (Atomic.get threshold)

let level_of_string = function
  | "off" | "quiet" -> Some Off
  | "warn" | "warning" -> Some Warn
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

let level_to_string = function
  | Off -> "off"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

(* Back-compat aliases: --quiet predates levels and meant "no stderr
   chatter", i.e. Off.  quiet () is true whenever warnings are
   suppressed. *)
let set_quiet q = if q then set_level Off else set_level Warn
let quiet () = Atomic.get threshold < int_of_level Warn

let emit lvl name msg =
  if Atomic.get threshold >= int_of_level lvl then
    Printf.eprintf "yashme: %s: %s\n%!" name msg

let warn msg = emit Warn "warning" msg
let info msg = emit Info "info" msg
let debug msg = emit Debug "debug" msg
