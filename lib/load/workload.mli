(** Workload specification for the load engine.

    A workload is a deterministic function of (config, seed): swap
    specs — Zipf-popular users and chain pairs, a weighted protocol
    mix, an abandon flag — are sampled up front in a fixed per-swap
    draw order, so a seed replays the exact same offered load
    regardless of how the simulation interleaves. *)

type arrival =
  | Open_loop of { rate : float }
      (** Poisson arrivals at [rate] swaps per virtual second. *)
  | Closed_loop of { clients : int; think : float }
      (** [clients] concurrent swappers, each launching its next swap
          [think] virtual seconds after its previous one finishes. *)

type protocol = Nolan | Herlihy | Ac3wn

val protocol_name : protocol -> string

(** Relative weights; must be non-negative and sum to a positive
    value. *)
type mix = { nolan : float; herlihy : float; ac3wn : float }

type config = {
  swaps : int;
  users : int;  (** identity pool size; >= 2 *)
  chains : int;  (** asset chains (the witness chain is implicit); >= 2 *)
  arrival : arrival;
  mix : mix;
  zipf_exponent : float;  (** skew of user and chain popularity; 0 = uniform *)
  abandon_frac : float;  (** fraction of swaps whose responder walks away *)
  deadline : float;  (** virtual seconds a swap may stay in flight *)
  block_interval : float;
  confirm_depth : int;
  mempool_capacity : int;
  poll_interval : float;
}

val default : config

(** Raises [Invalid_argument] on out-of-range or non-finite fields. *)
val validate : config -> unit

type spec = {
  index : int;
  user_a : int;  (** leader rank *)
  user_b : int;  (** responder rank; always <> [user_a] *)
  chain_a : int;  (** a pays b here *)
  chain_b : int;  (** b pays a here; always <> [chain_a] *)
  protocol : protocol;
  abandon : bool;
}

(** All [swaps] specs, in launch order; consumes a fixed number of
    draws per spec (plus deterministic rejection redraws for the
    distinct-pair constraints). Raises like {!validate}. *)
val sample_specs : config -> Ac3_sim.Rng.t -> spec array

(** Open-loop arrival offsets from time zero (cumulative exponential
    gaps); [[||]] for closed-loop workloads, whose launch times derive
    from completions instead. *)
val arrival_offsets : config -> Ac3_sim.Rng.t -> float array

val pp_arrival : Format.formatter -> arrival -> unit
