(* Structured diagnostics for the static verification passes. *)

type severity = Info | Warning | Error

type t = {
  severity : severity;
  rule : string;
  location : string;
  message : string;
}

let make severity ~rule ~location fmt =
  Fmt.kstr (fun message -> { severity; rule; location; message }) fmt

let info ~rule ~location fmt = make Info ~rule ~location fmt

let warning ~rule ~location fmt = make Warning ~rule ~location fmt

let error ~rule ~location fmt = make Error ~rule ~location fmt

let errors ds = List.filter (fun d -> d.severity = Error) ds

let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let by_rule rule ds = List.filter (fun d -> String.equal d.rule rule) ds

(* Drop exact repeats: several passes can derive the same fact about the
   same location (e.g. a preflight composing overlapping rule sets), and
   printing it twice only buries the distinct findings. Order and first
   occurrences are preserved; distinct messages at the same (rule,
   location) key are NOT merged — they carry different facts. *)
let dedupe ds =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun d ->
      let key = (d.rule, d.location, d.message) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    ds

let severity_to_string = function Info -> "info" | Warning -> "warning" | Error -> "error"

let to_json d =
  let module Json = Ac3_crypto.Codec.Json in
  Json.Obj
    [
      ("severity", Json.String (severity_to_string d.severity));
      ("rule", Json.String d.rule);
      ("location", Json.String d.location);
      ("message", Json.String d.message);
    ]

(* The shared section schema for machine-readable output: verify, check,
   flow and lint all emit {ok, sections:[{name, ok, diagnostics}]}
   through here, so downstream tooling parses one shape. Each section's
   extra fields (check's protocol, scenario and exploration stats) splice
   in after the common ones. *)
let section_to_json (name, ds, extra) =
  let module Json = Ac3_crypto.Codec.Json in
  Json.Obj
    ([
       ("name", Json.String name);
       ("ok", Json.Bool (not (has_errors ds)));
       ("diagnostics", Json.List (List.map to_json ds));
     ]
    @ extra)

let sections_to_json sections =
  let module Json = Ac3_crypto.Codec.Json in
  Json.Obj
    [
      ("ok", Json.Bool (List.for_all (fun (_, ds, _) -> not (has_errors ds)) sections));
      ("sections", Json.List (List.map section_to_json sections));
    ]

let pp ppf d =
  Fmt.pf ppf "%s[%s] %s: %s" (severity_to_string d.severity) d.rule d.location d.message

let to_string d = Fmt.str "%a" pp d
