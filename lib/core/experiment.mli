(** Experiment harness: one function per table/figure of the paper's
    evaluation, each returning structured rows the benchmark binary
    prints next to the paper's expected values. Ids follow DESIGN.md. *)

module Ac2t = Ac3_contract.Ac2t
open Ac3_chain

(** Block interval of the experiment chains (virtual seconds). *)
val block_interval : float

(** Confirmation depth of the experiment chains. *)
val confirm_depth : int

(** Δ = confirm_depth x block_interval. *)
val delta : float

(** AC3WN configuration shared by the protocol experiments. *)
val ac3wn_config : Ac3wn.config

(** {2 E1/E2 — Figures 8 and 9: phase timelines} *)

type timeline = {
  protocol : string;
  diam : int;
  events : (Ac3_flow.Protocol.event * float) list;
}

(** Herlihy on an [n]-ring; event times in Δ from protocol start. *)
val fig8 : ?seed:int -> ?n:int -> unit -> timeline

(** AC3WN on the same ring. *)
val fig9 : ?seed:int -> ?n:int -> unit -> timeline

(** {2 E3 — Figure 10: latency vs diameter} *)

type latency_row = {
  diam : int;
  herlihy_model : float;
  ac3wn_model : float;
  herlihy_measured : float option;
  ac3wn_measured : float option;
}

val fig10 : ?max_diam:int -> ?seed:int -> unit -> latency_row list

(** {2 E4 — Sec 6.2: cost overhead} *)

type cost_row = {
  n_contracts : int;
  herlihy_fee : int64;
  ac3wn_fee : int64;
  overhead_measured : float;
  overhead_model : float;
}

val cost_table : ?sizes:int list -> ?seed:int -> unit -> cost_row list

(** {2 E5 — Sec 6.3: witness choice and 51% attacks} *)

type depth_row = { va : float; required_d : int }

val depth_table : unit -> depth_row list

(** [jobs] fans the Monte-Carlo depths out over an [Ac3_par.Pool];
    per-depth streams are Splitmix-derived, so results are identical
    for every value (default 1). *)
val attack_table : ?jobs:int -> ?seed:int -> ?trials:int -> unit -> Attack.estimate list

(** {2 E6 — Table 1 / Sec 6.4: throughput} *)

type tps_row = {
  chain : string;
  paper_tps : float;
  configured_tps : float;
  measured_tps : float;
}

(** Saturation throughput of a chain preset measured on the simulator. *)
val measure_tps : ?blocks:int -> Params.t -> float

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

val fig7 : ?seed:int -> unit -> fig7_row list

(** {2 E8 — Sec 1: crash failures} *)

type crash_row = { protocol : string; outcome : string; atomic : bool }

val crash_experiment : ?seed:int -> unit -> crash_row list

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

(** [jobs] fans the (depth, trial) grid out over an [Ac3_par.Pool];
    every trial is seeded independently, so counts are identical for
    every value (default 1). *)
val fork_table :
  ?jobs:int ->
  ?seed:int ->
  ?trials:int ->
  ?window:float ->
  ?depths:int list ->
  unit ->
  fork_row list

(** {2 A1 — Sec 4.3 ablation: evidence-validation strategies} *)

type evidence_row = {
  headers_spanned : int;
  bundle_bytes : int;
  in_contract_us : float;
  spv_us : float;
  full_replica_us : float;
}

val evidence_ablation : ?spans:int list -> unit -> evidence_row list

(** {2 E10 — Sec 5.2: scalability via independent witness networks} *)

type scalability_row = {
  concurrent : int;
  shared_witness : bool;
  all_committed : bool;
  mean_latency_delta : float;
}

val scalability : ?ks:int list -> ?seed:int -> unit -> scalability_row list

(** {2 E11 — Sec 4.2 motivation: witness availability} *)

type availability_row = { protocol : string; witness_failure : string; result : string }

val availability : ?seed:int -> unit -> availability_row list

(** {2 A2 — ablation: decision depth vs latency} *)

type depth_latency_row = { depth : int; committed : bool; latency_delta : float }

val depth_latency : ?depths:int list -> ?seed:int -> unit -> depth_latency_row list
