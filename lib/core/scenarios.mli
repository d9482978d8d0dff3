(** Canned scenarios: universes and transaction graphs for examples,
    tests, and benchmarks. *)

module Keys = Ac3_crypto.Keys
module Ac2t = Ac3_contract.Ac2t
open Ac3_chain

(** Genesis funding per identity per chain. *)
val funding : Amount.t

(** Size of the identity pool: {!identities} refuses a larger [n]. *)
val max_identities : int

(** The first [n] of alice, bob, carol, ... — namespaced by [ns] so
    separate runs get fresh (unexhausted) MSS signing keys. [fresh]
    additionally bypasses the key cache ({!Keys.fresh}), so repeated
    calls with the same namespace are stateless replicas — required for
    byte-identical replay of the same run. *)
val identities : ?ns:string -> ?fresh:bool -> int -> Keys.t list

(** Fast generic chain parameters for protocol experiments. *)
val chain_params :
  ?block_interval:float ->
  ?confirm_depth:int ->
  ?regular_blocks:bool ->
  premine:(string * Amount.t) list ->
  string ->
  Params.t

(** Universe with the listed asset chains plus a "witness" chain, every
    chain premining funds for every identity. Returns the universe and
    one participant per identity (registered on all chains). *)
val make_universe :
  ?seed:int ->
  ?block_interval:float ->
  ?confirm_depth:int ->
  ?nodes:int ->
  ?regular_blocks:bool ->
  ?instrument:bool ->
  chains:string list ->
  Keys.t list ->
  unit ->
  Universe.t * Participant.t list

(** Figure 4: Alice pays on [chain1], Bob pays back on [chain2]. *)
val two_party_graph : chain1:string -> chain2:string -> Keys.t list -> timestamp:float -> Ac2t.t

(** n-ring: i pays i+1 mod n, one chain per edge; Diam(D) = n. *)
val ring_graph : chains:string list -> Keys.t list -> timestamp:float -> Ac2t.t

(** Figure 7a: cyclic for every choice of leader (3 ids, 3 chains). *)
val cyclic_graph : chains:string list -> Keys.t list -> timestamp:float -> Ac2t.t

(** Figure 7b: two disjoint swaps as one AC2T (4 ids, 4 chains). *)
val disconnected_graph : chains:string list -> Keys.t list -> timestamp:float -> Ac2t.t

(** Supply-chain DAG (4 ids, 3 chains). *)
val supply_chain_graph : chains:string list -> Keys.t list -> timestamp:float -> Ac2t.t
