(** A full node: block store + mempool + gossip handling, with crash and
    recovery. *)

type t

(** Create a node and register it on the network under [id]. With
    [?metrics], the node records per-chain counters and histograms
    (block accept/orphan/reject, tx accept/reject, reorg count and
    depth, block propagation delay, mempool evictions) labelled
    [{chain=<chain_id>}]; nodes of the same chain share instruments, so
    counts aggregate over the chain. *)
val create :
  engine:Ac3_sim.Engine.t ->
  network:Network.t ->
  params:Params.t ->
  registry:Contract_iface.registry ->
  ?metrics:Ac3_obs.Metrics.t ->
  string ->
  t

val id : t -> string

val store : t -> Store.t

val mempool : t -> Mempool.t

(** Ledger at the node's active tip. *)
val ledger : t -> Ledger.t

val params : t -> Params.t

val is_crashed : t -> bool

(** Stop processing network messages. *)
val crash : t -> unit

val recover : t -> unit

(** Validate, admit to the mempool, and relay a local transaction. *)
val submit_tx : t -> Tx.t -> (unit, string) result

(** Insert and relay a locally mined block. *)
val submit_block : t -> Block.t -> (unit, string) result

(** Depth-based confirmation count for a transaction (0 = unconfirmed). *)
val confirmations : t -> string -> int

val contract : t -> string -> Ledger.contract option

val balance_of : t -> string -> Amount.t

val tip_height : t -> int
