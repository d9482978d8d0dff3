(** The load engine: N concurrent AC2Ts through shared chains.

    One run is one universe — every chain, wallet and mempool is shared
    by all in-flight swaps, stressing outpoint contention, mempool
    pressure and contract-store growth in ways independent single-swap
    experiments cannot. Runs are deterministic from (config, seed);
    {!sweep} replicates across per-run seeds on the ac3_par pool with
    the chaos harness's task-order observability merge, so its output
    is byte-identical for every [jobs]. *)

module Obs = Ac3_obs.Obs
open Ac3_core

type swap_class =
  | Committed
  | Aborted  (** settled with no asset transferred (refund path) *)
  | Timed_out  (** still unsettled at its deadline *)
  | Non_atomic  (** settled mixed — an atomicity violation *)
  | Rejected  (** launch refused (bad graph / preflight) *)

type swap_result = {
  spec : Workload.spec;
  cls : swap_class;
  latency : float option;  (** launch to settled finish, virtual seconds *)
  phases : (string * float) list;  (** phase durations from the swap's trace *)
}

type report = {
  seed : int;
  config : Workload.config;
  launched : int;
  committed : int;
  aborted : int;
  timed_out : int;
  non_atomic : int;
  rejected : int;
  in_flight : int;  (** force-finished at the simulation horizon *)
  makespan : float;  (** first launch to last finish, virtual seconds *)
  throughput : float;  (** finished swaps per virtual second *)
  results : swap_result list;  (** swap-index order *)
}

(** Execute one workload in a fresh universe seeded by [seed]; returns
    the report and the universe's observability context (metrics under
    [load.*] plus the per-swap phase spans), detached from the universe
    ({!Ac3_obs.Obs.detach}) so a sweep does not keep every run's
    universe alive. Raises [Invalid_argument] on an invalid config. *)
val run : seed:int -> Workload.config -> report * Obs.t

(** Like {!run} but hands back the whole universe, for post-mortem
    checks ({!supply_check}) and white-box tests. *)
val run_universe : seed:int -> Workload.config -> report * Universe.t

(** Per-chain [(chain, expected, actual)] supply: the premine plus one
    block reward per mined block. Swaps move value; they must never
    create or destroy it. *)
val supply_check : Universe.t -> (string * Ac3_chain.Amount.t * Ac3_chain.Amount.t) list

(** Deterministic human-readable summary (virtual-time numbers only —
    safe to byte-compare across [--jobs]). *)
val render : report -> string

type sweep_summary = {
  sweep_seed : int;
  sweep_runs : int;
  reports : report list;  (** run order: seeds [seed], [seed + 1], ... *)
  obs : Obs.t;  (** merged in run order *)
}

(** [runs] replications with consecutive seeds on the domain pool; any
    run reproduces in isolation as [ac3 load --seed <run_seed>
    --runs 1]. Byte-identical output for every [jobs]. *)
val sweep :
  ?jobs:int ->
  ?sanitize:bool ->
  seed:int ->
  runs:int ->
  Workload.config ->
  sweep_summary

val render_sweep : sweep_summary -> string
