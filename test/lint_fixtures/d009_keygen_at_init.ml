(* Fixture: D009 key generation at module initialisation. *)

let bad = Keys.create "fixture:bad"

(* ac3-lint: allow D009 — fixture: a justified process-wide key *)
let ok = Ac3_crypto.Mss.generate ~seed:"fixture" ()

let on_demand () = Keys.create ~height:1 "fixture:on-demand"
