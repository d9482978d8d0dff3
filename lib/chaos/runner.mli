(** Execute protocols under fault plans and tally oracle verdicts.

    Everything downstream of (spec, plan, protocol) is deterministic:
    the universe is rebuilt fresh from [spec.seed] for every protocol
    run, so repeated runs — including replays of a deserialized plan —
    produce byte-identical traces and outcomes. *)

type protocol = P_nolan | P_herlihy | P_ac3wn

val all_protocols : protocol list

val protocol_name : protocol -> string

val protocol_of_string : string -> protocol option

type exec =
  | Verdict of Oracle.verdict
  | Rejected of string  (** the protocol refused the graph *)
  | Skipped of string  (** not applicable (Nolan beyond two parties) *)

type report = {
  protocol : protocol;
  spec : Plan.spec;
  plan : Plan.t;
  exec : exec;
  flow_violations : Ac3_flow.Flow.violation list;
      (** settled per-(participant, chain) deltas outside the static
          {!Ac3_flow.Flow} budget-1 intervals — a flow soundness bug by
          construction, surfaced like [unexplained] *)
  trace : Ac3_sim.Trace.t option;  (** the protocol's own event log *)
  chaos_trace : Ac3_sim.Trace.t option;  (** universe log: faults that fired *)
  obs : Ac3_obs.Obs.t;  (** the run universe's metrics and spans *)
}

(** Did the oracle fail this run? (Rejected/Skipped never count.) *)
val failed : report -> bool

(** Violation with an empty plan and a clean static verdict: a harness
    bug by construction. *)
val unexplained : report -> bool

(** Virtual time the universe warms up before the protocol starts. *)
val warmup : float

(** Simulation horizon handed to each protocol's [timeout]. *)
val protocol_timeout : float

(** Returns (universe, protocol participants, their identities,
    background-load participants — [2 * (spec.load - 1)] of them,
    premined but not part of the protocol's graph). *)
val build_universe :
  ?instrument:bool ->
  spec:Plan.spec ->
  protocol:protocol ->
  unit ->
  Ac3_core.Universe.t
  * Ac3_core.Participant.t list
  * Ac3_crypto.Keys.t list
  * Ac3_core.Participant.t list

val build_graph :
  spec:Plan.spec -> ids:Ac3_crypto.Keys.t list -> timestamp:float -> Ac3_contract.Ac2t.t

(** [instrument] (default [true]) switches the run universe's
    observability context; either way the protocol outcome, traces and
    verdict are byte-identical — instruments never touch the RNG or the
    engine. *)
val run_one :
  ?instrument:bool ->
  spec:Plan.spec ->
  plan:Plan.t ->
  protocol:protocol ->
  unit ->
  report

(** [jobs] runs the protocols on an [Ac3_par.Pool]; results keep
    protocol order and are identical for every value (default 1).
    [sanitize] (default [false]) re-executes sampled runs sequentially
    and compares report fingerprints, raising
    [Ac3_par.Pool.Interference] on divergence — sound because each run
    rebuilds its universe and identities from the spec seed alone. *)
val run_all :
  ?protocols:protocol list ->
  ?jobs:int ->
  ?sanitize:bool ->
  ?instrument:bool ->
  spec:Plan.spec ->
  plan:Plan.t ->
  unit ->
  report list

type counts = {
  mutable ran : int;
  mutable passed : int;
  mutable violations : int;
  mutable lost : int;
  mutable non_absorbing : int;
  mutable predicted : int;  (** violations the static verifier predicted *)
  mutable committed : int;
  mutable rejected : int;
  mutable skipped : int;
}

type failure = { fail_seed : int; fail_protocol : protocol }

type summary = {
  sweep_seed : int;
  sweep_runs : int;
  per_protocol : (protocol * counts) list;
  failures : failure list;
  unexplained_failures : int;
  interval_violations : int;
      (** runs whose settled deltas escaped the static flow intervals *)
  obs : Ac3_obs.Obs.t;
      (** the per-run observability contexts merged in sequential (run,
          protocol) order — byte-identical for every [jobs] value *)
}

(** Run [runs] sampled plans (per-run seeds [seed], [seed+1], ...), each
    against every protocol in [protocols]. [on_report] sees every
    report in sequential (run, protocol) order — even under [jobs > 1],
    where runs execute on an [Ac3_par.Pool] but tallying and callbacks
    happen afterwards over the order-preserved results, so the summary
    is byte-identical for every [jobs] value (default 1).

    [sanitize] spot-checks the pool's isolation contract: sampled runs
    are re-executed after the sweep and their report fingerprints
    compared, raising [Ac3_par.Pool.Interference] with the offending
    run index on divergence.

    [load] (default 1) layers [load - 1] concurrent background swaps
    onto every run's universe ({!Ac3_chaos.Plan.spec.load}): crashes
    and partitions then hit a system with contended mempools and
    blocks, not an idle one. *)
val sweep :
  ?protocols:protocol list ->
  ?on_report:(report -> unit) ->
  ?jobs:int ->
  ?instrument:bool ->
  ?sanitize:bool ->
  ?load:int ->
  seed:int ->
  runs:int ->
  unit ->
  summary

val pp_summary : Format.formatter -> summary -> unit
