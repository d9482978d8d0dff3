(* Top-level lint driver: discovery → scan → suppression.

   The output is plain [Diagnostic.t] lists, the same machinery as the
   G/T/S/M rule sets, so the CLI renders and serializes lint findings
   with zero new encoders. Severity doubles as the gate: [findings]
   (errors) fail the run, [notes] (warnings: unused suppressions) do
   not. *)

module Diagnostic = Ac3_verify.Diagnostic

type file_report = {
  fr_relpath : string;
  fr_findings : Diagnostic.t list;  (** unsuppressed rule hits + D000 errors *)
  fr_suppressed : (Diagnostic.t * string) list;  (** silenced hit, reason *)
  fr_notes : Diagnostic.t list;  (** D000 warnings (unused directives) *)
}

(* Scan one file's source: apply inline directives to the raw hits,
   then report whatever survived plus directive hygiene problems. *)
let check_file ~relpath source =
  let { Scan.findings; parse_error } = Scan.check_source ~relpath source in
  let directives, malformed = Suppress.scan ~relpath source in
  let kept = ref [] and silenced = ref [] in
  List.iter
    (fun { Scan.f_rule; f_line; f_diag } ->
      match Suppress.covers directives ~rule:f_rule ~line:f_line with
      | Some d ->
          Suppress.mark_used d;
          silenced := (f_diag, d.Suppress.dir_reason) :: !silenced
      | None -> kept := f_diag :: !kept)
    findings;
  {
    fr_relpath = relpath;
    fr_findings = Option.to_list parse_error @ malformed @ List.rev !kept;
    fr_suppressed = List.rev !silenced;
    fr_notes = Suppress.unused_warnings ~relpath directives;
  }

type outcome = {
  files : int;
  findings : Diagnostic.t list;  (** gate: run fails iff non-empty *)
  notes : Diagnostic.t list;
  suppressed : int;
}

let ok outcome = outcome.findings = []

(* Strip [root ^ "/"] so exemption paths and reported locations are
   repo-relative regardless of where the scan was launched from. *)
let relativize ~root path =
  let prefix = if root = "." || root = "" then "" else root ^ "/" in
  if prefix <> "" && String.length path > String.length prefix
     && String.sub path 0 (String.length prefix) = prefix
  then String.sub path (String.length prefix) (String.length path - String.length prefix)
  else path

let default_roots = [ "lib"; "bin" ]

let run ?(roots = default_roots) ~root () =
  let abs r = if root = "." || root = "" then r else Filename.concat root r in
  let files = Source.ml_files ~roots:(List.map abs roots) in
  let reports =
    List.map
      (fun path -> check_file ~relpath:(relativize ~root path) (Source.read_file path))
      files
  in
  {
    files = List.length files;
    findings = List.concat_map (fun r -> r.fr_findings) reports;
    notes = List.concat_map (fun r -> r.fr_notes) reports;
    suppressed = List.fold_left (fun n r -> n + List.length r.fr_suppressed) 0 reports;
  }
