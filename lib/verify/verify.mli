(** Top-level driver composing the static passes.

    The preflight entry points are what the chaos oracle screens every
    plan with, and what the [ac3 verify] subcommand runs over the
    built-in scenarios. *)

module Ac2t = Ac3_contract.Ac2t

(** Pass 3 alone (see {!State_machine}); [name] prefixes diagnostic
    locations with the owning contract id. *)
val contract : ?name:string -> State_machine.spec -> Diagnostic.t list

(** Graph lints under the single-leader profile, the timelock-order
    pass, and the budget-0 flow pass (widened when the timelock pass
    errors): everything that must hold before [Herlihy.execute] (or
    [Nolan.execute]) may touch a chain. Deduplicated. *)
val herlihy_preflight :
  graph:Ac2t.t ->
  delta:float ->
  timelock_slack:float ->
  start_time:float ->
  Diagnostic.t list

(** Graph lints under the witness profile plus the budget-0 flow pass:
    AC3WN has no timelocks, so well-formedness and economics are the
    whole static obligation. Deduplicated. *)
val ac3wn_preflight : graph:Ac2t.t -> Diagnostic.t list

(** Multi-line rendering for error messages and CLI output. *)
val render : Diagnostic.t list -> string
