(** Mining process attached to a node: Poisson block production with real
    (low-difficulty) proof-of-work grinding. *)

type t

(** [share] is this miner's fraction of the chain's hash power; its blocks
    arrive with mean inter-arrival [block_interval / share]. With
    [?metrics], the miner counts mined blocks and samples the mempool
    depth at every block assembly, labelled [{chain=<chain_id>}]. *)
val create :
  engine:Ac3_sim.Engine.t ->
  rng:Ac3_sim.Rng.t ->
  node:Node.t ->
  address:string ->
  share:float ->
  ?metrics:Ac3_obs.Metrics.t ->
  unit ->
  t

(** Assemble and PoW-mine one block on the node's current tip without
    scheduling (used by adversarial miners and tests). *)
val assemble : t -> Block.t

(** Mine and submit one block immediately (no-op if the node crashed). *)
val mine_one : t -> unit

val start : t -> unit

val stop : t -> unit
