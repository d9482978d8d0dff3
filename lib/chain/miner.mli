(** Mining process attached to a node: Poisson block production with real
    (low-difficulty) proof-of-work grinding. *)

type t

(** [share] is this miner's fraction of the chain's hash power; its blocks
    arrive with mean inter-arrival [block_interval / share]. On a
    [regular_blocks] chain they arrive exactly that far apart, and
    [index] (this miner's position among the chain's equal-share
    miners, from 0) picks its slot, so no two miners share one. With
    [?metrics], the miner counts mined blocks and samples the mempool
    depth at every block assembly, labelled [{chain=<chain_id>}]. *)
val create :
  engine:Ac3_sim.Engine.t ->
  rng:Ac3_sim.Rng.t ->
  node:Node.t ->
  address:string ->
  share:float ->
  index:int ->
  ?metrics:Ac3_obs.Metrics.t ->
  unit ->
  t

(** [block ~params ~parent ~time ~miner_addr txs] PoW-mines [txs] on
    [parent] at height parent + 1, under a coinbase paying [miner_addr]
    {!Ledger.max_reward} (the block reward plus the fees of [txs]). The
    one builder of a valid block: the miner, the experiments and the
    tests all mine through it. [txs] must apply in order on [parent]'s
    state for the block to be accepted. *)
val block :
  params:Params.t -> parent:Block.t -> time:float -> miner_addr:string -> Tx.t list -> Block.t

(** Mine and submit one block immediately (no-op if the node crashed). *)
val mine_one : t -> unit

(** Begin mining. A {!stop} then {!start} leaves one block timer
    running: timers armed before the stop drop themselves. *)
val start : t -> unit

val stop : t -> unit
