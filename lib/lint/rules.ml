(* The determinism & parallel-safety rule catalogue.

   Every rule encodes an invariant the rest of the repo only promises in
   comments: runs must be byte-identical for every seed and every
   --jobs value (D001-D008), and no module generates keys while it
   initialises, a cost every binary that links it would pay (D009).
   The checks are purely syntactic (parsetree, no type information),
   so each rule errs on the side of flagging and relies on inline
   suppressions-with-reasons for the justified cases; module aliasing
   (e.g. [module H = Hashtbl]) evades them, which DESIGN.md Sec 13
   documents as a known limitation. *)

type id = D001 | D002 | D003 | D004 | D005 | D006 | D007 | D008 | D009

let code = function
  | D001 -> "D001"
  | D002 -> "D002"
  | D003 -> "D003"
  | D004 -> "D004"
  | D005 -> "D005"
  | D006 -> "D006"
  | D007 -> "D007"
  | D008 -> "D008"
  | D009 -> "D009"

(* Slugs follow the existing diagnostic convention ("G002-self-edge"):
   the code, then a short kebab-case summary. *)
let slug = function
  | D001 -> "D001-unordered-hashtbl"
  | D002 -> "D002-ambient-random"
  | D003 -> "D003-wall-clock"
  | D004 -> "D004-domain-primitive"
  | D005 -> "D005-poly-hash-compare"
  | D006 -> "D006-unsorted-readdir"
  | D007 -> "D007-stdout-in-lib"
  | D008 -> "D008-dls-outside-pool"
  | D009 -> "D009-keygen-at-init"

let of_code s =
  match s with
  | "D001" -> Some D001
  | "D002" -> Some D002
  | "D003" -> Some D003
  | "D004" -> Some D004
  | "D005" -> Some D005
  | "D006" -> Some D006
  | "D007" -> Some D007
  | "D008" -> Some D008
  | "D009" -> Some D009
  | _ -> None

(* The meta-rule: problems with the lint run itself (unparsable file,
   malformed or unused suppression). Not a member of [all] — it has no
   checker; the engine and the suppression scanner emit it directly. *)
let meta_slug = "D000-lint"
