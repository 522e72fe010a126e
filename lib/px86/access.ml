type memorder = Relaxed | Acquire | Release | Acq_rel | Seq_cst

type t = Plain | Atomic of memorder

let is_atomic = function Plain -> false | Atomic _ -> true

let is_release = function
  | Atomic (Release | Acq_rel | Seq_cst) -> true
  | Atomic (Relaxed | Acquire) | Plain -> false

let is_acquire = function
  | Atomic (Acquire | Acq_rel | Seq_cst) -> true
  | Atomic (Relaxed | Release) | Plain -> false

let to_string = function
  | Plain -> "plain"
  | Atomic Relaxed -> "atomic(relaxed)"
  | Atomic Acquire -> "atomic(acquire)"
  | Atomic Release -> "atomic(release)"
  | Atomic Acq_rel -> "atomic(acq_rel)"
  | Atomic Seq_cst -> "atomic(seq_cst)"
