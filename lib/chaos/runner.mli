(** Execute protocols under fault plans and tally oracle verdicts.

    Everything downstream of (spec, plan, protocol) is deterministic:
    the universe is rebuilt fresh from [spec.seed] for every protocol
    run, so repeated runs — including replays of a deserialized plan —
    produce byte-identical traces and outcomes. Every plan draws its
    parties from one fixed cast ({!plan_identities}); a run that does
    not apply is skipped before any universe is built, a finished
    report no longer holds its universe, and a {!sweep} drops each
    plan's reports once it has tallied them. *)

(** The chaos harness's own spelling of {!Ac3_flow.Protocol.t}, kept
    as a separate enum because the benchmark worker names its
    constructors. Names and families come from the shared table. *)
type protocol = P_nolan | P_herlihy | P_ac3wn

val shared : protocol -> Ac3_flow.Protocol.t

val of_shared : Ac3_flow.Protocol.t -> protocol

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
  trace : Ac3_flow.Protocol.event Ac3_sim.Trace.t option;  (** the protocol's own event log *)
  chaos_trace : Ac3_flow.Protocol.event Ac3_sim.Trace.t option;
      (** universe log: faults that fired *)
  obs : Ac3_obs.Obs.t;
      (** the run universe's metrics and spans, detached from the
          universe ({!Ac3_obs.Obs.detach}); a skipped run's holds only
          its [run] span and [chaos.*] counters *)
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

(** The plan's protocol parties: the first [spec.parties] members of
    the fixed cast [chaos:alice], [chaos:bob], ..., the same names and
    public keys for every plan, each with a full, unconsumed signature
    budget on every call. Key material comes from the per-domain MSS
    memo after the first call, so a domain pays for each party's keygen
    once per process, not once per plan. Universes never exchange
    messages, so reusing keys across plans is safe. *)
val plan_identities : Plan.spec -> Ac3_crypto.Keys.t list

(** Δ of every chain in a chaos universe ({!Ac3_chain.Params.delta} of
    the parameters {!build_universe} fixes): the universe's
    [max_delta], known without building one. *)
val delta : float

(** Returns (universe, protocol participants, their identities —
    {!plan_identities} — and background-load participants —
    [2 * (spec.load - 1)] of them, [chaos:bg<k>] from the same fixed
    cast, premined but not part of the protocol's graph). [protocol]
    no longer selects the identities: every protocol of a plan gets the
    same parties and the same universe. *)
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
    rebuilds its universe from the spec seed and takes fresh signature
    budgets ([Keys.fresh]) for the fixed cast, so no run consumes
    another's one-time keys. *)
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
    where runs execute on an [Ac3_par.Pool] whose ordered fold tallies
    each plan's reports, and calls [on_report], on the calling domain
    in run order — so the summary is byte-identical for every [jobs]
    value (default 1). Reports are dropped once tallied: memory does
    not grow with [runs].

    [sanitize] spot-checks the pool's isolation contract: sampled runs
    are re-executed after the sweep and their report fingerprints
    compared, raising [Ac3_par.Pool.Interference] with the offending
    run index on divergence.

    [spans] (default [true]) keeps every run's span tree in the
    summary's [obs]; it is the one part of a summary that grows with
    [runs], so a caller that exports no trace passes [false].

    [load] (default 1) layers [load - 1] concurrent background swaps
    onto every run's universe ({!Ac3_chaos.Plan.spec.load}): crashes
    and partitions then hit a system with contended mempools and
    blocks, not an idle one. *)
val sweep :
  ?protocols:protocol list ->
  ?on_report:(report -> unit) ->
  ?jobs:int ->
  ?instrument:bool ->
  ?spans:bool ->
  ?sanitize:bool ->
  ?load:int ->
  seed:int ->
  runs:int ->
  unit ->
  summary

val pp_summary : Format.formatter -> summary -> unit
