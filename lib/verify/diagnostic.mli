(** Structured diagnostics emitted by the static verification passes.

    Every rule violation is reported as a value rather than an exception
    or a log line, so callers (the [ac3 verify] CLI, the chaos oracle,
    tests) can filter, count and render them uniformly. *)

type severity = Info | Warning | Error

type t = {
  severity : severity;
  rule : string;  (** stable rule id, e.g. ["G002-self-edge"] *)
  location : string;  (** what the rule fired on, e.g. ["edge 3 (ab12cd->ef34ab @btc)"] *)
  message : string;
}

val info : rule:string -> location:string -> ('a, Format.formatter, unit, t) format4 -> 'a

val warning : rule:string -> location:string -> ('a, Format.formatter, unit, t) format4 -> 'a

val error : rule:string -> location:string -> ('a, Format.formatter, unit, t) format4 -> 'a

val errors : t list -> t list

val has_errors : t list -> bool

(** Diagnostics matching a rule id. *)
val by_rule : string -> t list -> t list

(** Drop exact (rule, location, message) repeats, keeping first
    occurrences in order. Distinct messages at the same location are
    kept — they carry different facts. *)
val dedupe : t list -> t list

val severity_to_string : severity -> string

(** Stable field order: severity, rule, location, message. *)
val to_json : t -> Ac3_crypto.Codec.Json.t

(** One named section of the shared machine-readable schema:
    [{name; ok; diagnostics}], where [ok] is the absence of errors.
    [extra] splices additional fields after the common ones (the model
    checker adds its exploration stats this way). *)
val section_to_json :
  ?extra:(string * Ac3_crypto.Codec.Json.t) list ->
  name:string ->
  t list ->
  Ac3_crypto.Codec.Json.t

(** The full envelope [{ok; sections}] shared by [ac3 verify --json],
    [ac3 check --json] and [ac3 lint --json]. *)
val sections_to_json : (string * t list) list -> Ac3_crypto.Codec.Json.t

val pp_severity : Format.formatter -> severity -> unit

val pp : Format.formatter -> t -> unit

(** One diagnostic per line. *)
val pp_list : Format.formatter -> t list -> unit

val to_string : t -> string
