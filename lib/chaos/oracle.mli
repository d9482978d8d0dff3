(** The atomicity oracle for chaos runs.

    Safety, not liveness: the oracle fails a run only when a deposit is
    lost (mixed Redeemed/Refunded settlement — someone paid and was not
    paid) or a terminal contract status mutates during the absorption
    window after the run. Contracts left merely Published by a crashed
    participant wound liveness, not safety, and do not fail the oracle
    on their own. *)

module Swap_template = Ac3_contract.Swap_template
module Diagnostic = Ac3_verify.Diagnostic

type verdict = {
  statuses : Swap_template.status array;
  atomic : bool;
  committed : bool;
  deposit_lost : bool;
  settled : bool;
  absorbing : bool;
  static_errors : Diagnostic.t list;
  pass : bool;
}

(** Extra virtual seconds run before the final outcome read. *)
val absorb_window : float

(** Evaluate the outcome, run the absorption window, evaluate again, and
    judge. [static_errors] is the static verifier's error set for the
    graph under the executed protocol's preflight; it is carried, not
    judged. Consumes the universe (it is advanced in place). *)
val check :
  universe:Ac3_core.Universe.t ->
  graph:Ac3_contract.Ac2t.t ->
  contracts:string option list ->
  static_errors:Diagnostic.t list ->
  verdict

val static_ok : verdict -> bool

val pp : Format.formatter -> verdict -> unit
