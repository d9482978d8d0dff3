(** The cross-chain universe: several independent blockchains sharing one
    virtual clock, deterministic from a seed. *)

open Ac3_chain

type chain = {
  params : Params.t;
  network : Network.t;
  nodes : Node.t array;
  miners : Miner.t array;
}

type t

(** [instrument] (default [true]) controls the observability context:
    [false] makes every instrument inert (one boolean check per
    operation — the bench E14 baseline). The context never draws from
    the RNG or schedules events, so runs are byte-identical either
    way. *)
val create : ?seed:int -> ?instrument:bool -> unit -> t

val engine : t -> Ac3_sim.Engine.t

val rng : t -> Ac3_sim.Rng.t

(** The universe's own log: the faults injected into it. *)
val trace : t -> Ac3_flow.Protocol.event Ac3_sim.Trace.t

(** The universe's observability context (metrics + spans on the
    virtual clock); chains created by {!add_chain} record into it. *)
val obs : t -> Ac3_obs.Obs.t

val metrics : t -> Ac3_obs.Metrics.t

val spans : t -> Ac3_obs.Span.t

(** Fold end-of-run per-chain quantities into the registry: network
    sent/delivered/dropped, active-chain height and transaction count,
    observed vs configured throughput. Call once when a run ends. *)
val snapshot_metrics : t -> unit

val now : t -> float

(** Record a trace event at the current virtual time. *)
val record : t -> ?attrs:(string * string) list -> Ac3_flow.Protocol.event -> unit

(** Spin up a chain with [nodes] mining full nodes on a fresh gossip
    network. *)
val add_chain : ?nodes:int -> ?min_delay:float -> ?max_delay:float -> t -> Params.t -> chain

(** Raises [Invalid_argument] for unknown ids. *)
val chain : t -> string -> chain

val chains : t -> (string * chain) list

val chain_ids : t -> string list

(** The default node participants use on a chain. *)
val gateway : t -> string -> Node.t

val params : t -> string -> Params.t

(** Δ of one chain: confirmation depth x block interval. *)
val delta : t -> string -> float

(** The uniform Δ of the paper's analysis: the largest Δ of any chain. *)
val max_delta : t -> float

val run_until : t -> float -> unit

(** Run until [cond] holds (checked between events) or [timeout] virtual
    seconds pass; returns whether it was met. *)
val run_while : t -> ?timeout:float -> (unit -> bool) -> bool

(** Header of the chain's active block at confirmation depth below the
    tip (genesis for short chains). *)
val stable_checkpoint : t -> string -> Block.header
