(** Top-level lint driver: discovery → scan → suppression.

    Findings are ordinary {!Ac3_verify.Diagnostic} values (same
    severity/location/JSON machinery as the G/T/S/M rules), so the CLI
    and CI gate on them with the existing plumbing. *)

type file_report = {
  fr_relpath : string;
  fr_findings : Ac3_verify.Diagnostic.t list;
      (** unsuppressed rule hits, plus D000 errors (parse failures,
          malformed directives) *)
  fr_suppressed : (Ac3_verify.Diagnostic.t * string) list;
      (** hits silenced by an inline directive, with its reason *)
  fr_notes : Ac3_verify.Diagnostic.t list;  (** D000 warnings *)
}

(** Scan one file's source text (fixture entry point: [relpath] governs
    the directory exemptions and need not exist on disk). *)
val check_file : relpath:string -> string -> file_report

type outcome = {
  files : int;
  findings : Ac3_verify.Diagnostic.t list;  (** gate: fails iff non-empty *)
  notes : Ac3_verify.Diagnostic.t list;
  suppressed : int;
}

val ok : outcome -> bool

val default_roots : string list

(** Scan every [.ml] under [roots] (resolved against [root], the repo
    checkout). Reported locations are [root]-relative. Roots that do not
    exist are skipped, so an empty scan is possible ([files = 0]); the
    CLI refuses it. *)
val run : ?roots:string list -> root:string -> unit -> outcome
