(** Canned scenarios: universes and transaction graphs for examples,
    tests, and benchmarks. *)

module Keys = Ac3_crypto.Keys
module Ac2t = Ac3_contract.Ac2t
open Ac3_chain

(** Size of the identity pool: {!identities} refuses a larger [n]. *)
val max_identities : int

(** The first [n] of alice, bob, carol, ... — labels namespaced by
    [ns]. Each call returns new identities with full signature budgets
    ({!Keys.create}), so repeated calls with the same namespace are
    stateless replicas, as byte-identical replay of a run needs. *)
val identities : ?ns:string -> int -> Keys.t list

(** The chain template: 10 s Poisson blocks, depth 4, [pow_bits] 8, 100
    transactions per block, signatures checked, no mempool bound.
    {!make_universe} sets each copy's [chain_id], [symbol] and [premine]. *)
val chain : Params.t

(** {!chain} at 5 s blocks and depth 3 (Δ = 15 s): the chains of the
    chaos plans, the paper's tables and the tests. *)
val fast_chain : Params.t

(** Universe with the listed asset chains plus a "witness" chain, each a
    copy of [chain] (default {!chain}) named after itself, with [nodes]
    mining nodes (default 2), every chain premining funds for every
    identity. Returns the universe and one participant per identity. *)
val make_universe :
  ?seed:int ->
  ?instrument:bool ->
  ?nodes:int ->
  ?chain:Params.t ->
  chains:string list ->
  Keys.t list ->
  unit ->
  Universe.t * Participant.t list

(** Figure 4: Alice pays on [chain1], Bob pays back on [chain2]. Both
    amounts are raised by [offset] (default 0). *)
val two_party_graph :
  ?offset:int -> chain1:string -> chain2:string -> Keys.t list -> timestamp:float -> Ac2t.t

(** n-ring: i pays i+1 mod n, one chain per edge; Diam(D) = n. *)
val ring_graph : chains:string list -> Keys.t list -> timestamp:float -> Ac2t.t

(** Figure 7a: cyclic for every choice of leader (3 ids, 3 chains). *)
val cyclic_graph : chains:string list -> Keys.t list -> timestamp:float -> Ac2t.t

(** Figure 7b: two disjoint swaps as one AC2T (4 ids, 4 chains). *)
val disconnected_graph : chains:string list -> Keys.t list -> timestamp:float -> Ac2t.t

(** Supply-chain DAG (4 ids, 3 chains). *)
val supply_chain_graph : chains:string list -> Keys.t list -> timestamp:float -> Ac2t.t
