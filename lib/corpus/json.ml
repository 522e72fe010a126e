(* Kept so [Pm_corpus.Json] callers build unchanged; the codec lives in
   {!Yashme_util.Json}. *)
include Yashme_util.Json
