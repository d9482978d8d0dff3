(** Replayable reproducers: spec + shrunk plan + expected verdicts, as
    deterministic JSON for the committed regression corpus. *)

type expectation = {
  protocol : Runner.protocol;
  pass : bool;
  deposit_lost : bool;
  committed : bool;
}

type t = { note : string; spec : Plan.spec; plan : Plan.t; expect : expectation list }

(** Build a reproducer whose expectations are the actual verdicts of
    [reports] (protocols that rejected or skipped are omitted). *)
val of_reports : ?note:string -> spec:Plan.spec -> plan:Plan.t -> Runner.report list -> t

(** Pretty JSON with trailing newline — the committed-corpus form. *)
val to_string : t -> string

val of_string : string -> t

type replay_result = { expected : expectation; report : Runner.report; matches : bool }

(** Re-run every expected protocol under the stored spec and plan.
    [jobs] parallelizes over expectations (order and results identical
    for every value; default 1). *)
val replay : ?jobs:int -> t -> replay_result list

(** Non-empty and every protocol matched its expectation. *)
val replay_ok : replay_result list -> bool

val pp_replay_result : Format.formatter -> replay_result -> unit
