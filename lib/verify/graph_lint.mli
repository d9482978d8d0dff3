(** Static well-formedness lints over AC2T graphs (pass 1 of the
    verifier).

    [lint_edges] works on a raw edge list, so the conditions
    {!Ac3_contract.Ac2t.create} enforces by raising [Invalid_argument]
    (and a few it does not) are reported as structured diagnostics
    instead. [lint] runs the same checks plus the structural ones on an
    already-built graph.

    Rules:
    - [G001-empty-graph]    (error) the graph has no edges.
    - [G002-self-edge]      (error) an edge pays its own source.
    - [G003-zero-amount]    (error) an edge moves no asset.
    - [G004-duplicate-edge] (error) two edges agree on from/to/amount/chain,
      so their canonical encodings — and hence their deployed contracts —
      are indistinguishable to the counterparty.
    - [G005-disconnected]   (error under [Single_leader], info otherwise)
      the graph is not weakly connected (Fig 7b); AC3WN still executes it.
    - [G006-leader-cycle]   (error under [Single_leader]) the graph stays
      cyclic once the leader is removed (Fig 7a, Sec 5.3).
    - [G007-net-payer]      (warning) a participant only pays and never
      receives: every commit strictly loses it assets.
    - [G008-chain-overload] (warning) one chain carries more
      sub-transactions than a block can hold, so deployment cannot
      complete in a single block.
    - [G009-value-delta]    (info) per-participant, per-chain conservation
      deltas of a full commit. *)

module Ac2t = Ac3_contract.Ac2t

(** Pre-construction lints (G001-G004) on a raw edge list. *)
val lint_edges : Ac2t.edge list -> Diagnostic.t list

(** All lints on a built graph for the protocol family [profile]
    (default [Witness]). [Single_leader] (Nolan/Herlihy) enforces Sec
    5.3's executability conditions, with the graph's first participant
    as leader, matching {!Ac3_core.Herlihy.execute}; [Witness]
    (AC3WN/AC3TW) accepts any shape. [block_capacity] bounds G008 (omit
    to skip the rule). *)
val lint :
  ?profile:Ac3_flow.Flow.profile -> ?block_capacity:int -> Ac2t.t -> Diagnostic.t list
