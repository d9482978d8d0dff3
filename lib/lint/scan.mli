(** The parsetree walk: all D-rules in one pass per file.

    Rules fire on identifier uses ([Pexp_ident]) — applied or passed
    first-class — with directory-based exemptions derived from the
    repo-relative path, an enclosing-sort context that sanctions
    [Sys.readdir] nested in a sort call's arguments, and a function
    depth: key generation outside every [fun]/[function] runs at module
    initialisation (D009). Purely syntactic:
    module aliasing evades it (documented limitation). *)

type finding = {
  f_rule : Rules.id;
  f_line : int;
  f_diag : Ac3_verify.Diagnostic.t;
}

type result = {
  findings : finding list;  (** raw rule hits, pre-suppression *)
  parse_error : Ac3_verify.Diagnostic.t option;  (** D000; never suppressible *)
}

(** Check one compilation unit. [relpath] selects the exemptions
    ([lib/par/] may spawn domains, [bin/] may print, [lib/sim/rng.ml]
    and [lib/crypto/drbg.ml] may use [Random]) and prefixes every
    reported location. *)
val check_source : relpath:string -> string -> result
