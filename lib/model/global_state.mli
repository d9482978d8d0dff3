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

type edge_status = Unpublished | Published | Redeemed | Refunded

type witness =
  | W_none  (** protocol has no witness (Nolan/Herlihy) *)
  | W_undecided
  | W_redeem  (** P -> RDauth buried *)
  | W_refund  (** P -> RFauth buried *)

type t = {
  edges : edge_status array;  (** indexed like [Ac2t.edges] *)
  knows : bool array;  (** secret knowledge per party (first-appearance order) *)
  alive : bool array;  (** false once a party crashes (withholds forever) *)
  time : int;  (** number of distinct timelock deadlines already passed *)
  witness : witness;
  crashes_left : int;
}

(** Canonical byte-string key for hashing/interning: one byte per edge
    and per flag, fixed-width [time] and [crashes_left], and the witness
    char. Injective over states with the same edge and party counts. *)
val key : t -> string

(** Some edge Redeemed while another is Refunded: the M001 condition. *)
val mixed_settlement : t -> bool

(** No edge is still Published ([Unpublished] counts as settled: the
    deposit never left its owner). *)
val settled : t -> bool

(** The recovery closure seed for M002: all parties acting again, no
    faults left. Returns its argument when nothing changes. *)
val revive : t -> t

val status_char : edge_status -> char

val witness_char : witness -> char

val pp_status : Format.formatter -> edge_status -> unit

val pp : Format.formatter -> t -> unit
