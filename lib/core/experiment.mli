(** Experiment harness: one function per table/figure of the paper's
    evaluation, each returning structured rows [ac3 analyze] prints
    next to the paper's expected values. Ids follow DESIGN.md. Every
    table is a function of [()] with its seeds and sizes fixed, so the
    printed rows are the only ones there are. *)

module Ac2t = Ac3_contract.Ac2t

(** Δ of the experiment chains, {!Scenarios.fast_chain}: confirmation
    depth x block interval. *)
val delta : float

(** [ring_setup ~seed n]: an [n]-party ring on the experiment chains
    (regular blocks), mined for 60 s; the universe, one participant per
    party and the ring graph. The E1–E4 and A2 runs start from it. *)
val ring_setup : seed:int -> int -> Universe.t * Participant.t list * Ac2t.t

(** {2 E1/E2 — Figures 8 and 9: phase timelines} *)

type timeline = {
  protocol : string;
  diam : int;
  events : (Ac3_flow.Protocol.event * float) list;
}

(** Herlihy on a 3-ring; event times in Δ from protocol start. *)
val fig8 : unit -> timeline

(** AC3WN on a 3-ring. *)
val fig9 : unit -> timeline

(** {2 E3 — Figure 10: latency vs diameter} *)

type latency_row = {
  diam : int;
  herlihy_model : float;
  ac3wn_model : float;
  herlihy_measured : float option;
  ac3wn_measured : float option;
}

(** Rings of Diam 2..6. *)
val fig10 : unit -> latency_row list

(** {2 E4 — Sec 6.2: cost overhead} *)

type cost_row = {
  n_contracts : int;
  herlihy_fee : int64;
  ac3wn_fee : int64;
  overhead_measured : float;
  overhead_model : float;
}

(** Rings of N = 2..5. *)
val cost_table : unit -> cost_row list

(** {2 E5 — Sec 6.3: witness choice and 51% attacks} *)

type depth_row = { va : float; required_d : int }

val depth_table : unit -> depth_row list

(** A q = 0.3 adversary, 300 Monte-Carlo trials at each
    d ∈ {0, 1, 2, 4, 6, 10}. *)
val attack_table : unit -> Attack.estimate list

(** {2 E6 — Table 1 / Sec 6.4: throughput} *)

type tps_row = {
  chain : string;
  paper_tps : float;
  configured_tps : float;
  measured_tps : float;
}

(** Each preset's saturation throughput measured on the simulator. *)
val table1 : unit -> tps_row list

type combo_row = { chains : string list; witness : string; expected_min : float }

val throughput_combos : unit -> combo_row list

(** {2 E7 — Figure 7: complex graphs} *)

type fig7_row = {
  name : string;
  shape : Ac2t.shape;
  herlihy_verdict : string;
  ac3wn_committed : bool;
  ac3wn_atomic : bool;
}

val fig7 : unit -> fig7_row list

(** {2 E8 — Sec 1: crash failures} *)

type crash_row = { protocol : string; outcome : string; atomic : bool }

val crash_experiment : unit -> crash_row list

(** {2 E9 — Lemma 5.3: forks in the witness network} *)

type fork_row = {
  d : int;
  trials : int;
  conflicting_decisions_buried : int;
  rate : float;
}

(** One adversarial trial: partition the witness network, inject RDauth
    on one side and RFauth on the other, and check whether both get
    buried at depth >= d within [window] seconds. *)
val fork_trial : seed:int -> d:int -> window:float -> bool

(** Eight 60 s trials at each d ∈ {0, 1, 2, 4, 8}. *)
val fork_table : unit -> fork_row list

(** {2 A1 — Sec 4.3 ablation: evidence-validation strategies} *)

(** Hashes per verification, counted from the bundle, not timed:
    in-contract validation hashes the checkpoint, every bundled header
    and the Merkle path; SPV only the Merkle path, as its light client
    holds the headers; a full replica only looks up its own index. Each
    row's three strategies all accept the transaction. *)
type evidence_row = {
  headers_spanned : int;
  bundle_bytes : int;
  in_contract_hashes : int;
  spv_hashes : int;
  full_replica_hashes : int;
}

(** Spans of 4, 16 and 64 headers. *)
val evidence_ablation : unit -> evidence_row list

(** {2 E10 — Sec 5.2: scalability via independent witness networks} *)

type scalability_row = {
  concurrent : int;
  shared_witness : bool;
  all_committed : bool;
  mean_latency_delta : float;
}

(** k ∈ {1, 2, 4} concurrent two-party AC2Ts, once on a shared witness
    chain and once with one witness chain each. *)
val scalability : unit -> scalability_row list

(** {2 E11 — Sec 4.2 motivation: witness availability} *)

type availability_row = { protocol : string; witness_failure : string; result : string }

val availability : unit -> availability_row list

(** {2 A2 — ablation: decision depth vs latency} *)

type depth_latency_row = { depth : int; committed : bool; latency_delta : float }

(** A 2-ring at d ∈ {2, 4, 6, 9}. *)
val depth_latency : unit -> depth_latency_row list
