(** The determinism & parallel-safety rule catalogue (D001–D008), plus
    D009, which keeps key generation out of module initialisation.

    Rules are purely syntactic: they flag identifier uses in the
    parsetree, with directory-based exemptions (e.g. [Random.*] is legal
    inside [lib/sim/rng.ml]). Justified hits carry an inline
    [(* ac3-lint: allow D00x — reason *)] suppression; see {!Suppress}. *)

type id = D001 | D002 | D003 | D004 | D005 | D006 | D007 | D008 | D009

(** ["D001"] — the form used in suppression directives. *)
val code : id -> string

(** ["D001-unordered-hashtbl"] — the [Diagnostic.rule] id, following the
    existing ["G002-self-edge"] convention. *)
val slug : id -> string

val of_code : string -> id option

(** Rule id used for problems with the lint run itself: unparsable
    files, malformed or unused suppressions. *)
val meta_slug : string
