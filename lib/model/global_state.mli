(** Global states of the cross-contract product automaton.

    One state captures everything the M-rules need about a whole AC2T
    mid-protocol: each edge contract's settlement status, who knows the
    hashlock secret, who is still acting, how many timelock deadlines
    have passed, the witness network's decision, and the remaining
    fault budget. Every component evolves monotonically under the
    semantics, which is what makes the explored graph a DAG.

    Successor states share the arrays a move leaves unchanged with their
    source ({!Semantics.apply}), so the arrays are read-only once a
    state exists. *)

type t = {
  edges : Ac3_contract.Swap_template.status array;  (** indexed like [Ac2t.edges] *)
  knows : bool array;  (** secret knowledge per party (first-appearance order) *)
  alive : bool array;  (** false once a party crashes (withholds forever) *)
  time : int;  (** number of distinct timelock deadlines already passed *)
  decision : Ac3_flow.Protocol.decision;
      (** the witness's (AC3WN: P -> RDauth is [Commit], P -> RFauth
          [Abort]); always [Undecided] for Nolan/Herlihy *)
  crashes_left : int;
}

(** Canonical byte-string key for hashing/interning: one byte per edge
    and per flag, fixed-width [time] and [crashes_left], and the decision
    char. Injective over states with the same edge and party counts. *)
val key : t -> string

(** The recovery closure seed for M002: all parties acting again, no
    faults left. Returns its argument when nothing changes. *)
val revive : t -> t

(** ['U'], ['P'], ['D'] or ['F']: one byte of {!key}. *)
val status_char : Ac3_contract.Swap_template.status -> char

val decision_char : Ac3_flow.Protocol.decision -> char

val pp_status : Format.formatter -> Ac3_contract.Swap_template.status -> unit

val pp : Format.formatter -> t -> unit
