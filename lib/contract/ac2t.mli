(** Atomic cross-chain transactions as directed graphs (paper Sec 3). *)

module Keys = Ac3_crypto.Keys
module Multisig = Ac3_crypto.Multisig
open Ac3_chain

type edge = {
  from_pk : Keys.public;
  to_pk : Keys.public;
  amount : Amount.t;
  chain : string;
}

type t

(** Raises [Invalid_argument] on empty graphs, self-edges, zero
    amounts, or duplicate identical edges (same endpoints, amount and
    chain — their contracts would share a canonical encoding).
    {!Ac3_verify.Graph_lint.lint_edges} reports the same conditions as
    diagnostics instead of raising. *)
val create : edges:edge list -> timestamp:float -> t

val edges : t -> edge list

(** Participants in first-appearance order. *)
val participants : t -> Keys.public list

(** Sorted distinct chain ids touched by the transaction. *)
val chains : t -> string list

(** Canonical signed bytes: (D, t) of Equation 1. *)
val to_bytes : t -> string

val of_bytes : string -> t

(** ms(D): every identity signs the canonical encoding. *)
val multisign : t -> Keys.t list -> Multisig.t

(** The multisignature covers exactly this graph and all participants. *)
val verify_multisig : t -> Multisig.t -> bool

(** Diam(D): longest shortest directed path, counting a vertex's shortest
    cycle as its distance to itself (so a 2-party swap has diameter 2). *)
val diameter : t -> int

(** Weak connectivity. *)
val is_connected : t -> bool

val is_cyclic : t -> bool

(** Is the graph still cyclic after removing [leader]? (Figure 7a is, for
    every leader.) *)
val cyclic_without_leader : t -> Keys.public -> bool

(** Sec 5.3's applicability condition for Nolan/Herlihy: connected, and
    acyclic once the leader is removed. *)
val single_leader_executable : t -> Keys.public -> bool

type shape = Simple_swap | Cyclic | Disconnected | Dag

val classify : t -> shape

val pp_shape : Format.formatter -> shape -> unit

val pp : Format.formatter -> t -> unit
