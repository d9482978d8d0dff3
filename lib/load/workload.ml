(* Workload specification: what traffic to offer the universe.

   A workload is a deterministic function of (config, seed): every swap
   the engine will launch is sampled up front — users and chain pairs
   from Zipf popularity, the protocol from a weighted mix, the abandon
   flag from a Bernoulli draw — in a fixed per-swap draw order. Arrival
   *times* are the only part left to the engine (open loop samples them
   up front too; closed loop derives them from completions), so a seed
   replays the exact same offered load regardless of how the simulation
   interleaves. *)

module Rng = Ac3_sim.Rng

type arrival =
  | Open_loop of { rate : float } (* Poisson arrivals, swaps per virtual second *)
  | Closed_loop of { clients : int; think : float }

type protocol = Ac3_flow.Protocol.t = Nolan | Herlihy | Ac3wn

type mix = { nolan : float; herlihy : float; ac3wn : float }

type config = {
  swaps : int;
  users : int;
  chains : int;
  arrival : arrival;
  mix : mix;
  zipf_exponent : float;
  abandon_frac : float; (* fraction of swaps whose responder walks away *)
  deadline : float; (* virtual seconds a swap may stay in flight *)
  block_interval : float;
  confirm_depth : int;
  mempool_capacity : int;
  poll_interval : float;
}

(* Small, fast chains: the workload stresses concurrency and mempool
   pressure, not proof-of-work. The default abandon fraction guarantees
   a non-trivial commit/abort mix at any seed. *)
let default =
  {
    swaps = 50;
    users = 16;
    chains = 3;
    arrival = Open_loop { rate = 1.0 };
    mix = { nolan = 0.5; herlihy = 0.3; ac3wn = 0.2 };
    zipf_exponent = 1.1;
    abandon_frac = 0.15;
    deadline = 400.0;
    block_interval = 4.0;
    confirm_depth = 2;
    mempool_capacity = 512;
    poll_interval = 4.0;
  }

let validate c =
  let err fmt = Printf.ksprintf (fun s -> invalid_arg ("Workload: " ^ s)) fmt in
  (* NaN passes every range comparison below, and no infinity is a
     usable rate, weight, fraction or duration: finiteness comes first. *)
  let finite what v = if not (Float.is_finite v) then err "%s must be finite" what in
  if c.swaps < 1 then err "swaps must be >= 1";
  if c.users < 2 then err "users must be >= 2";
  if c.chains < 2 then err "chains must be >= 2";
  (match c.arrival with
  | Open_loop { rate } ->
      finite "arrival rate" rate;
      if rate <= 0.0 then err "arrival rate must be positive"
  | Closed_loop { clients; think } ->
      if clients < 1 then err "clients must be >= 1";
      finite "think time" think;
      if think < 0.0 then err "think time must be >= 0");
  List.iter (finite "mix weights") [ c.mix.nolan; c.mix.herlihy; c.mix.ac3wn ];
  finite "zipf exponent" c.zipf_exponent;
  finite "abandon fraction" c.abandon_frac;
  finite "deadline" c.deadline;
  finite "block interval" c.block_interval;
  finite "poll interval" c.poll_interval;
  if c.mix.nolan < 0.0 || c.mix.herlihy < 0.0 || c.mix.ac3wn < 0.0 then
    err "mix weights must be >= 0";
  if c.mix.nolan +. c.mix.herlihy +. c.mix.ac3wn <= 0.0 then err "mix weights sum to zero";
  if c.zipf_exponent < 0.0 then err "zipf exponent must be >= 0";
  if c.abandon_frac < 0.0 || c.abandon_frac > 1.0 then err "abandon fraction out of [0, 1]";
  if c.deadline <= 0.0 then err "deadline must be positive";
  if c.block_interval <= 0.0 then err "block interval must be positive";
  if c.confirm_depth < 1 then err "confirm depth must be >= 1";
  if c.mempool_capacity < 1 then err "mempool capacity must be >= 1";
  if c.poll_interval <= 0.0 then err "poll interval must be positive"

type spec = {
  index : int;
  user_a : int; (* leader *)
  user_b : int; (* responder *)
  chain_a : int; (* a pays b here *)
  chain_b : int; (* b pays a here *)
  protocol : protocol;
  abandon : bool;
}

let pick_protocol c rng =
  let total = c.mix.nolan +. c.mix.herlihy +. c.mix.ac3wn in
  let u = Rng.float rng total in
  if u < c.mix.nolan then Nolan else if u < c.mix.nolan +. c.mix.herlihy then Herlihy else Ac3wn

(* Draw a second rank distinct from [first]; rejection sampling is
   deterministic given the generator state and terminates quickly even
   under heavy skew (the top rank's probability is < 1 for n >= 2). *)
let rec distinct_from zipf rng first =
  let v = Zipf.sample zipf rng in
  if v = first then distinct_from zipf rng first else v

let sample_specs c rng =
  validate c;
  let users = Zipf.create ~n:c.users ~s:c.zipf_exponent in
  let chains = Zipf.create ~n:c.chains ~s:c.zipf_exponent in
  Array.init c.swaps (fun index ->
      let user_a = Zipf.sample users rng in
      let user_b = distinct_from users rng user_a in
      let chain_a = Zipf.sample chains rng in
      let chain_b = distinct_from chains rng chain_a in
      let protocol = pick_protocol c rng in
      let abandon = Rng.bernoulli rng c.abandon_frac in
      { index; user_a; user_b; chain_a; chain_b; protocol; abandon })

(* Open-loop arrival offsets from time zero: cumulative exponential
   inter-arrival gaps at the configured rate. Closed-loop workloads
   derive launch times from completions instead. *)
let arrival_offsets c rng =
  match c.arrival with
  | Closed_loop _ -> [||]
  | Open_loop { rate } ->
      let t = ref 0.0 in
      Array.init c.swaps (fun _ ->
          t := !t +. Rng.exponential rng ~mean:(1.0 /. rate);
          !t)

let pp_arrival ppf = function
  | Open_loop { rate } -> Fmt.pf ppf "open(rate=%.2f/s)" rate
  | Closed_loop { clients; think } -> Fmt.pf ppf "closed(clients=%d, think=%.1fs)" clients think
