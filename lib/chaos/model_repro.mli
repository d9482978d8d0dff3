(** Concretize static crash findings into replayable chaos reproducers.

    The bridge that makes M-rule violations and F001 witnesses
    falsifiable: the untimed set of crashed parties is turned into
    timed [Plan.Crash] faults, searched over a small ladder of crash
    times until the oracle confirms a dynamic atomicity violation, and
    packaged as a {!Repro.t} whose expectations are actual fresh-run
    verdicts — so [ac3 chaos replay] on the exported JSON passes by
    construction. *)

type outcome = {
  repro : Repro.t;
  confirmed : bool;
      (** some candidate plan made the oracle report [deposit_lost]
          under the target protocol *)
  attempts : int;  (** dynamic runs spent searching for a confirming time *)
}

(** [concretize ~spec ~protocol ~crashes ()] — [crashes] are the party
    indices to crash, in [Ac2t.participants] order (the runner's
    identity order): the [Crash] moves of a {!Ac3_model.Rules}
    violation's schedule, or an F001 witness's
    {!Ac3_flow.Flow.witness.crash}. With no crashes the plan is empty
    and [confirmed] is false (fault-free violations need no
    concretizing: the bare replay already exhibits them). *)
val concretize :
  ?note:string ->
  spec:Plan.spec ->
  protocol:Ac3_flow.Protocol.t ->
  crashes:int list ->
  unit ->
  outcome
