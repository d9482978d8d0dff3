(** The M-rule family: cross-contract atomicity checks over the
    explored product automaton.

    - [M000-summary]           (info) nodes/transitions/POR statistics.
    - [M001-mixed-settlement]  (error) an interleaving redeems one edge
      contract and refunds another — the paper's Sec 3 atomicity
      violation ("deposit lost").
    - [M002-global-deadlock]   (error) a reachable state cannot settle
      even after every crashed party recovers.
    - [M003-deviation-unsafe]  (error) a party whose executed history is
      conforming ends worse than all-refund: an outgoing deposit is
      redeemed while an incoming one refunds.
    - [M004-witness-fork]      (error) the witness decision is not
      absorbing — checked on the product and against the real SCw code.
    - [M005-truncated]         (warning) the node bound was hit.
    - [M006-interval-unsound]  (error) a reachable settled state has a
      per-(party, chain) value delta outside the static intervals of
      the given {!Ac3_flow.Flow} analysis: the abstract interpretation
      failed to bound the model, which is its ground truth.

    Each violation carries the shortest event schedule reaching it,
    which {!Ac3_chaos.Model_repro} can concretize into a replayable
    fault plan. *)

type violation = {
  rule : string;
  node : int;
  state : Global_state.t;
  schedule : Semantics.move list;
}

(** All rules over an explored product; returns (diagnostics in rule
    order, violations with schedules). [flow], when given, enables the
    M006 cross-validation against the static value intervals. *)
val check : ?flow:Ac3_flow.Flow.analysis -> Explore.t -> Ac3_verify.Diagnostic.t list * violation list

(** The lowest party index (M003) with a redeemed outgoing edge and a
    refunded incoming edge in the state, or [-1]. One pass over the
    edge statuses per block of 62 parties. *)
val unsafe_party : Semantics.model -> Global_state.t -> int
