(** Economic-safety abstract interpreter over AC2T graphs.

    For every participant and asset chain the interpreter computes an
    {e interval of net value deltas} — in the chain's own units — that
    is reachable under {e any} protocol outcome within a fault budget:
    every commit/abort/crash interleaving, including contracts left
    locked by a crashed party. No concrete execution is enumerated; the
    domain is a per-(participant, chain) int64 interval and the
    transfer functions are sums over the edge list, so an analysis is
    O(V + E) and cheap enough to screen every spec the load engine
    samples.

    {2 Abstract domain}

    Let [in(p,c)] / [out(p,c)] be the participant's incoming/outgoing
    edge totals on chain [c] and [commit(p,c) = in - out] the exact
    all-commit delta.

    - Fault budget 0, statics clean: the only settled outcomes are
      all-commit and all-abort, so the interval is the hull
      [{0, commit}].
    - Fault budget >= 1 (or a timelock race flagged statically, which
      widens budget 0 — rule F006): edges settle independently.
      {ul
      {- [Single_leader] (Nolan/Herlihy): the lower bound is [-out]
         (every outgoing contract redeemed against, or left locked by
         the participant's own crash). The upper bound is the incoming
         total restricted to {e redeemable} edges — an edge can redeem
         only if its recipient can learn the hashlock secret, i.e. has
         a directed path to the leader (knowledge propagates backward
         from the leader along redeemed edges, exactly the model
         checker's [knows] relation).}
      {- [Witness] (AC3WN/AC3TW): the witness decision is global and
         mutually exclusive, so mixed redeem/refund settlements are
         unreachable; crashes can only strand locked deposits. The
         interval is [[-out, max 0 commit]].}}

    Chain fees ([Econ.submit_fee]) shift the lower bound down by the
    worst-case fee spend (bounded by [max_retries]); an unbounded
    retry budget is reported as fee bleed (F004) instead of a
    meaningless [-inf]. The default profiles charge no fees, so
    intervals are exact contract-value deltas — which is also what the
    chaos oracle measures. *)

module Keys = Ac3_crypto.Keys
module Ac2t = Ac3_contract.Ac2t
module Econ = Ac3_contract.Econ

type profile = Single_leader | Witness

type interval = { lo : int64; hi : int64 }

val contains : interval -> int64 -> bool

(** [subsumes outer inner]: every point of [inner] lies in [outer]. *)
val subsumes : interval -> interval -> bool

val pp_interval : Format.formatter -> interval -> unit

(** Per-(participant, chain) facts. Exposures are ordered by
    participant first-appearance (as {!Ac2t.participants}), then by
    chain name. *)
type exposure = {
  pk : Keys.public;
  chain : string;
  incoming : int64;  (** total incoming edge value on this chain *)
  outgoing : int64;  (** total outgoing edge value on this chain *)
  in_edges : int;  (** number of incoming edges (all chains aggregate per chain) *)
  out_edges : int;  (** number of outgoing edges on this chain *)
  redeemable_in : int64;
      (** incoming value whose recipient can learn the secret
          (equals [incoming] under the witness profile) *)
  commit : int64;  (** exact all-commit delta: [incoming - outgoing] *)
  interval : interval;  (** hull over all outcomes within the budget *)
}

(** A concrete worse-off-than-abort outcome backing an F001 finding:
    crash the victim after its deploys and the counterparty still
    redeems the outgoing edge (it learns the secret via [path]), while
    the victim's incoming edge expires and refunds. *)
type witness = {
  victim : Keys.public;
  victim_index : int;  (** index in {!Ac2t.participants} order *)
  crash : int list;  (** party indices whose crash realizes the outcome *)
  redeemed : Ac2t.edge;  (** outgoing edge redeemed against the victim *)
  refunded : Ac2t.edge;  (** incoming edge that refunds at expiry *)
  path : Ac2t.edge list;
      (** the counterparty's secret path to the leader, avoiding the
          victim *)
}

(** Error-grade economic defects of the contract profile itself. *)
type issue =
  | Minting of { index : int; edge : Ac2t.edge; payout : int64; deposit : int64 }
      (** settlement releases more than was escrowed *)
  | Stranding of { index : int; edge : Ac2t.edge; payout : int64; deposit : int64 }
      (** settlement releases less than was escrowed *)
  | No_refund of { index : int; edge : Ac2t.edge }
      (** no refund path: the deposit is stranded on every abort *)

type analysis = {
  profile : profile;
  fault_budget : int;
  widened : bool;
      (** budget-0 intervals were widened to the faulted hull because
          the timelock analysis flagged a race (F006) *)
  exposures : exposure list;
  witnesses : witness list;  (** F001 witnesses, victim order *)
  issues : issue list;  (** F003/F005 facts, edge order *)
  external_funding : (Keys.public * string * int64) list;
      (** (participant, chain, shortfall): escrow not covered by
          incoming value on the same chain (F002) *)
  fee_bleed : bool;  (** positive fee with unbounded retries (F004) *)
  asymmetric : Keys.public list;
      (** non-leader parties carrying worse-off crash exposure the
          leader does not (F007) *)
}

(** [analyze ~profile graph]. [fault_budget] defaults to 1; [econ]
    defaults to the profile's shipped edge contract (HTLC or the AC3WN
    per-edge contract); [static_races] (default false) asserts that
    the timelock pass found a race on this graph, widening budget-0
    intervals. *)
val analyze :
  ?fault_budget:int -> ?econ:Econ.t -> ?static_races:bool -> profile:profile -> Ac2t.t -> analysis

(** As {!analyze} but over a raw edge list (graphs {!Ac2t.create} would
    reject can still be analyzed). *)
val analyze_edges :
  ?fault_budget:int ->
  ?econ:Econ.t ->
  ?static_races:bool ->
  profile:profile ->
  Ac2t.edge list ->
  analysis

(** The interval for one participant and chain; [{0; 0}] when the
    participant has no incident edge there (its delta is necessarily
    zero). *)
val interval_for : analysis -> pk:Keys.public -> chain:string -> interval

(** O(E) pre-launch screen: the error-grade economic defects of the
    graph under the given profile, with a zero fault budget. Empty for
    every well-formed swap over the shipped contracts. *)
val screen : ?econ:Econ.t -> ?profile:profile -> Ac2t.t -> issue list

(** {2 Checking concrete outcomes against the intervals} *)

(** Final contract status of each edge, in graph edge order (the chaos
    oracle's view; [S_published] is a contract left locked). *)
type settlement = S_unpublished | S_published | S_redeemed | S_refunded

(** Net per-(participant, chain) deltas of a concrete settlement:
    a redeemed edge pays its recipient and costs its sender; a
    published (locked) edge costs its sender; refunded and unpublished
    edges move nothing. Ordered like {!exposure} lists. *)
val settlement_deltas :
  Ac2t.t -> settlement list -> ((Keys.public * string) * int64) list

type violation = {
  v_pk : Keys.public;
  v_chain : string;
  v_delta : int64;
  v_interval : interval;
}

(** Soundness check: every concrete delta must lie inside its static
    interval. Returns the offenders (empty = sound). Raises
    [Invalid_argument] if the settlement list length does not match the
    edge count. *)
val violations : analysis -> Ac2t.t -> settlement list -> violation list

val pp_violation : Format.formatter -> violation -> unit
