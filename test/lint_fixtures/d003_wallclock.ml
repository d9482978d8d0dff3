(* Fixture: D003 wall-clock reads. *)

let bad () = Unix.gettimeofday ()

(* ac3-lint: allow D003 — fixture: a justified micro-benchmark *)
let ok () = Sys.time ()
