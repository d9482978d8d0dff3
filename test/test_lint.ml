(* ac3_lint tests: one fixture per rule (positive + suppressed
   negative), directive hygiene (malformed / unused), and the shared
   diagnostic JSON envelope.

   Fixtures are parsed, never compiled; [check_file]'s [relpath]
   argument controls the directory exemptions, so every fixture is
   scanned as if it lived under lib/. *)

module Lint = Ac3_lint.Lint
module Rules = Ac3_lint.Rules
module Diagnostic = Ac3_verify.Diagnostic
module Json = Ac3_crypto.Codec.Json

let fixtures_dir () =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else Filename.concat "test" "lint_fixtures"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Scan a fixture as if it were a library source. *)
let scan_fixture name =
  let source = read_file (Filename.concat (fixtures_dir ()) name) in
  Lint.check_file ~relpath:("lib/fixtures/" ^ name) source

let rules_of ds = List.map (fun (d : Diagnostic.t) -> d.Diagnostic.rule) ds

(* --- one fixture per rule ---------------------------------------------- *)

(* (fixture, rule slug, expected unsuppressed hits, expected suppressed) *)
let rule_fixtures =
  [
    ("d001_hashtbl.ml", Rules.slug Rules.D001, 2, 1);
    ("d002_random.ml", Rules.slug Rules.D002, 1, 1);
    ("d003_wallclock.ml", Rules.slug Rules.D003, 1, 1);
    ("d004_domains.ml", Rules.slug Rules.D004, 1, 1);
    ("d005_poly.ml", Rules.slug Rules.D005, 1, 1);
    ("d006_readdir.ml", Rules.slug Rules.D006, 1, 1);
    ("d007_stdout.ml", Rules.slug Rules.D007, 1, 1);
    ("d008_dls.ml", Rules.slug Rules.D008, 1, 1);
  ]

let test_rule_fixtures () =
  List.iter
    (fun (name, slug, expect_findings, expect_suppressed) ->
      let report = scan_fixture name in
      Alcotest.(check int)
        (name ^ ": unsuppressed findings")
        expect_findings
        (List.length report.Lint.fr_findings);
      List.iter
        (fun (d : Diagnostic.t) ->
          Alcotest.(check string) (name ^ ": rule slug") slug d.Diagnostic.rule)
        report.Lint.fr_findings;
      Alcotest.(check int)
        (name ^ ": suppressed hits")
        expect_suppressed
        (List.length report.Lint.fr_suppressed);
      List.iter
        (fun ((d : Diagnostic.t), reason) ->
          Alcotest.(check string) (name ^ ": suppressed slug") slug d.Diagnostic.rule;
          Alcotest.(check bool) (name ^ ": reason recorded") true (String.length reason > 0))
        report.Lint.fr_suppressed;
      Alcotest.(check (list string)) (name ^ ": no notes") [] (rules_of report.Lint.fr_notes))
    rule_fixtures

(* The same sources scanned under an exempt path produce no findings:
   directory context, not content, is what arms each rule. *)
let test_directory_exemptions () =
  let check ~fixture ~relpath =
    let source = read_file (Filename.concat (fixtures_dir ()) fixture) in
    let report = Lint.check_file ~relpath source in
    Alcotest.(check (list string))
      (Printf.sprintf "%s exempt at %s" fixture relpath)
      [] (rules_of report.Lint.fr_findings)
  in
  check ~fixture:"d003_wallclock.ml" ~relpath:"bench/fixture.ml";
  check ~fixture:"d004_domains.ml" ~relpath:"lib/par/fixture.ml";
  check ~fixture:"d008_dls.ml" ~relpath:"lib/par/fixture.ml";
  check ~fixture:"d007_stdout.ml" ~relpath:"bin/fixture.ml";
  check ~fixture:"d002_random.ml" ~relpath:"lib/sim/rng.ml"

(* --- directive hygiene -------------------------------------------------- *)

let test_malformed_directive () =
  let report = scan_fixture "malformed_directive.ml" in
  (* The reasonless directive is a D000 error AND the hit it failed to
     suppress still fires: malformed waivers can never hide findings. *)
  Alcotest.(check bool)
    "D000 error present" true
    (List.exists (fun (d : Diagnostic.t) -> d.Diagnostic.rule = Rules.meta_slug) report.Lint.fr_findings);
  Alcotest.(check bool)
    "the D001 hit still fires" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.Diagnostic.rule = Rules.slug Rules.D001)
       report.Lint.fr_findings)

let test_unused_directive () =
  let report = scan_fixture "unused_directive.ml" in
  Alcotest.(check (list string)) "no findings" [] (rules_of report.Lint.fr_findings);
  Alcotest.(check (list string))
    "stale suppression warned" [ Rules.meta_slug ]
    (rules_of report.Lint.fr_notes)

let test_parse_error_not_suppressible () =
  let report = Lint.check_file ~relpath:"lib/fixtures/broken.ml" "let x = (* ac3-lint" in
  Alcotest.(check (list string))
    "parse failure is a D000 error" [ Rules.meta_slug ]
    (rules_of report.Lint.fr_findings)

(* --- shared JSON envelope ----------------------------------------------- *)

let test_sections_json_shape () =
  let d =
    Diagnostic.error ~rule:"D001-unordered-hashtbl" ~location:"lib/x.ml:1" "unordered iteration"
  in
  let json = Diagnostic.sections_to_json [ ("lint (lib bin)", [ d ]) ] in
  match json with
  | Json.Obj [ ("ok", Json.Bool false); ("sections", Json.List [ section ]) ] -> (
      match section with
      | Json.Obj (("name", Json.String "lint (lib bin)") :: ("ok", Json.Bool false) :: _) -> ()
      | _ -> Alcotest.fail "section shape: expected name/ok/diagnostics field order")
  | _ -> Alcotest.fail "envelope shape: expected {ok; sections}"

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "every rule: positive and suppressed fixtures" `Quick
            test_rule_fixtures;
          Alcotest.test_case "directory exemptions disarm rules" `Quick test_directory_exemptions;
        ] );
      ( "directives",
        [
          Alcotest.test_case "reasonless directive is an error, hit still fires" `Quick
            test_malformed_directive;
          Alcotest.test_case "stale directive is warned" `Quick test_unused_directive;
          Alcotest.test_case "parse errors are never suppressible" `Quick
            test_parse_error_not_suppressible;
        ] );
      ( "json", [ Alcotest.test_case "shared {ok; sections} envelope" `Quick test_sections_json_shape ] );
    ]
