(** Top-level driver: build the product model for a protocol over an
    AC2T, explore it, and run the M-rules.

    {!check} with a positive crash budget asks "is the protocol
    fault-tolerant on this graph?" — Herlihy is not: one withholding
    party yields M001/M003, while AC3WN stays clean on the same
    universes. With a zero budget it asks "does the protocol violate
    atomicity even with no faults?". *)

module Ac2t = Ac3_contract.Ac2t
module Diagnostic = Ac3_verify.Diagnostic

type protocol = Ac3_flow.Protocol.t = Nolan | Herlihy | Ac3wn

val protocol_name : protocol -> string

type config = {
  delta : float;  (** worst-case publish-to-confirm latency Δ *)
  timelock_slack : float;
  start_time : float;
  max_nodes : int;
  crash_budget : int;  (** how many parties the adversary may crash *)
}

(** Δ=15.0 (3 confirmations x 5.0s blocks, as in the chaos harness),
    slack 2.0, 20k nodes, one crash. *)
val default_config : config

type stats = {
  nodes : int;
  transitions : int;
  por_skipped : int;
  peak_frontier : int;
  truncated : bool;
}

type report = {
  protocol : protocol;
  diagnostics : Diagnostic.t list;
  violations : Rules.violation list;
  stats : stats;
  model : Semantics.model option;  (** [None] when the model could not be built *)
}

val check : config:config -> protocol:protocol -> graph:Ac2t.t -> report

(** No error-severity diagnostics. *)
val ok : report -> bool

val pp_stats : Format.formatter -> stats -> unit
