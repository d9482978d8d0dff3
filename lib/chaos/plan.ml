(* Fault plans: the typed, serializable schedule of faults a chaos run
   injects into a universe (FoundationDB-style deterministic chaos).

   A plan is sampled from a seeded SplitMix64 stream, so (seed -> spec,
   plan) is a pure function: the same seed always yields the same
   randomized universe shape and the same timed faults, and a plan
   serialized to JSON replays bit-for-bit. All times are virtual seconds
   relative to the moment the plan is installed (protocol start). *)

module Rng = Ac3_sim.Rng
module Json = Ac3_crypto.Codec.Json

exception Malformed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* ------------------------------------------------------------------ *)
(* Universe specs *)

type shape =
  | Two_party  (** Figure 4: the two-vertex swap (the Nolan case) *)
  | Ring  (** n-ring, one chain per edge *)
  | Cyclic  (** Figure 7a: cyclic for every leader choice *)
  | Disconnected  (** Figure 7b: two disjoint swaps as one AC2T *)
  | Supply_chain  (** the supply-chain DAG *)
  | Random  (** seeded ring with random chords over random chains *)

type spec = {
  seed : int;  (** drives universe construction and graph sampling *)
  shape : shape;
  parties : int;  (** 2 up to the identity pool *)
  nchains : int;  (** asset chains, 2 up to the identity pool; the witness chain is extra *)
  extra_edges : int;  (** chords beyond the base ring (Random only) *)
  load : int;  (** concurrent background swaps sharing the universe (>= 1) *)
}

let shape_to_string = function
  | Two_party -> "two_party"
  | Ring -> "ring"
  | Cyclic -> "cyclic"
  | Disconnected -> "disconnected"
  | Supply_chain -> "supply_chain"
  | Random -> "random"

let shape_of_string = function
  | "two_party" -> Two_party
  | "ring" -> Ring
  | "cyclic" -> Cyclic
  | "disconnected" -> Disconnected
  | "supply_chain" -> Supply_chain
  | "random" -> Random
  | s -> fail "unknown shape %S" s

let chain_names spec = List.init spec.nchains (Printf.sprintf "c%d")

let validate_spec spec =
  let arity_ok =
    match spec.shape with
    | Two_party -> spec.parties = 2 && spec.nchains = 2
    | Ring -> spec.parties >= 2 && spec.nchains = spec.parties
    | Cyclic -> spec.parties = 3 && spec.nchains = 3
    | Disconnected -> spec.parties = 4 && spec.nchains = 4
    | Supply_chain -> spec.parties = 4 && spec.nchains = 3
    | Random -> spec.parties >= 2 && spec.nchains >= 2
  in
  if not arity_ok then
    fail "spec arity mismatch: %s with %d parties over %d chains" (shape_to_string spec.shape)
      spec.parties spec.nchains;
  (* Every spec the CLI can check must also replay: a ring has one
     identity per party and one chain per edge. *)
  let pool = Ac3_core.Scenarios.max_identities in
  if spec.parties < 2 || spec.parties > pool then fail "parties out of range: %d" spec.parties;
  if spec.nchains < 2 || spec.nchains > pool then fail "nchains out of range: %d" spec.nchains;
  if spec.extra_edges < 0 then fail "negative extra_edges";
  if spec.load < 1 || spec.load > 16 then fail "load out of range: %d" spec.load;
  spec

(* ------------------------------------------------------------------ *)
(* Faults *)

type fault =
  | Crash of { party : int; at : float }
      (** participant [party mod n] stops acting (polling) at [at] *)
  | Restart of { party : int; at : float }  (** ... and resumes *)
  | Partition of { chain : string; at : float; duration : float; cut : int }
      (** split the chain's gossip network: nodes with index < [cut]
          against the rest, healed after [duration] *)
  | Delay of { chain : string; at : float; duration : float; factor : float }
      (** inflate the chain's message latency window by [factor] *)
  | Drop of { chain : string; at : float; duration : float; p : float }
      (** per-link Bernoulli message drop with probability [p] *)
  | Mining_stall of { chain : string; at : float; duration : float }
      (** stop every miner on the chain, restart after [duration] *)
  | Mining_burst of { chain : string; at : float; blocks : int }
      (** mine [blocks] blocks immediately (difficulty-free burst) *)
  | Witness_outage of { at : float; duration : float }
      (** crash the whole witness chain: nodes down, miners stopped *)

type t = fault list

let time_of_fault = function
  | Crash { at; _ }
  | Restart { at; _ }
  | Partition { at; _ }
  | Delay { at; _ }
  | Drop { at; _ }
  | Mining_stall { at; _ }
  | Mining_burst { at; _ }
  | Witness_outage { at; _ } -> at

let sort_by_time faults =
  List.stable_sort (fun a b -> Float.compare (time_of_fault a) (time_of_fault b)) faults

(* ------------------------------------------------------------------ *)
(* Seeded sampling *)

let horizon = 400.0

let sample_spec rng ~seed ~load =
  let shape =
    match Rng.int rng 8 with
    | 0 -> Two_party
    | 1 -> Ring
    | 2 -> Cyclic
    | 3 -> Disconnected
    | 4 -> Supply_chain
    | _ -> Random
  in
  let parties, nchains =
    match shape with
    | Two_party -> (2, 2)
    | Ring ->
        let n = 2 + Rng.int rng 4 in
        (n, n)
    | Cyclic -> (3, 3)
    | Disconnected -> (4, 4)
    | Supply_chain -> (4, 3)
    | Random -> (2 + Rng.int rng 7, 2 + Rng.int rng 4)
  in
  let extra_edges = match shape with Random -> Rng.int rng 4 | _ -> 0 in
  validate_spec { seed; shape; parties; nchains; extra_edges; load }

(* Chains a fault may target: every asset chain plus the witness chain
   (so witness-side partitions and stalls are in scope, not just the
   dedicated Witness_outage). *)
let fault_chains spec = chain_names spec @ [ "witness" ]

let sample_time rng = 5.0 +. Rng.float rng (horizon -. 5.0)

let sample_fault rng ~spec =
  let pick_chain () =
    let cs = Array.of_list (fault_chains spec) in
    cs.(Rng.int rng (Array.length cs))
  in
  let duration () = 20.0 +. Rng.float rng 180.0 in
  match Rng.int rng 10 with
  | 0 | 1 ->
      (* crash, sometimes with a later restart *)
      let party = Rng.int rng spec.parties in
      let at = sample_time rng in
      if Rng.bernoulli rng 0.5 then
        let wake = at +. duration () in
        [ Crash { party; at }; Restart { party; at = wake } ]
      else [ Crash { party; at } ]
  | 2 | 3 ->
      [ Partition { chain = pick_chain (); at = sample_time rng; duration = duration (); cut = 1 } ]
  | 4 ->
      let factor = 2.0 +. Rng.float rng 18.0 in
      [ Delay { chain = pick_chain (); at = sample_time rng; duration = duration (); factor } ]
  | 5 | 6 ->
      let p = 0.2 +. Rng.float rng 0.7 in
      [ Drop { chain = pick_chain (); at = sample_time rng; duration = duration (); p } ]
  | 7 -> [ Mining_stall { chain = pick_chain (); at = sample_time rng; duration = duration () } ]
  | 8 ->
      [ Mining_burst { chain = pick_chain (); at = sample_time rng; blocks = 1 + Rng.int rng 5 } ]
  | _ -> [ Witness_outage { at = sample_time rng; duration = duration () } ]

let sample_faults rng ~spec =
  let n = 1 + Rng.int rng 4 in
  sort_by_time (List.concat (List.init n (fun _ -> sample_fault rng ~spec)))

(* [load] perturbs neither the spec nor the plan stream: it is an
   orthogonal knob ([ac3 chaos --load N]) layered onto whatever the
   seed samples, so existing seeds and corpus reproducers are
   unchanged at the default. *)
let sample ?(load = 1) ~seed () =
  let rng = Rng.create seed in
  let spec = sample_spec rng ~seed ~load in
  let plan = sample_faults rng ~spec in
  (spec, plan)

(* ------------------------------------------------------------------ *)
(* JSON round-trip *)

let spec_to_json spec =
  Json.Obj
    [
      ("seed", Json.Int spec.seed);
      ("shape", Json.String (shape_to_string spec.shape));
      ("parties", Json.Int spec.parties);
      ("nchains", Json.Int spec.nchains);
      ("extra_edges", Json.Int spec.extra_edges);
      ("load", Json.Int spec.load);
    ]

let spec_of_json j =
  validate_spec
    {
      seed = Json.to_int (Json.member "seed" j);
      shape = shape_of_string (Json.to_str (Json.member "shape" j));
      parties = Json.to_int (Json.member "parties" j);
      nchains = Json.to_int (Json.member "nchains" j);
      extra_edges = Json.to_int (Json.member "extra_edges" j);
      (* Absent in corpus files predating the load knob: one swap. *)
      load = (match Json.member_opt "load" j with Some v -> Json.to_int v | None -> 1);
    }

let fault_to_json fault =
  let f x = Json.Float x in
  match fault with
  | Crash { party; at } -> Json.Obj [ ("kind", Json.String "crash"); ("party", Json.Int party); ("at", f at) ]
  | Restart { party; at } ->
      Json.Obj [ ("kind", Json.String "restart"); ("party", Json.Int party); ("at", f at) ]
  | Partition { chain; at; duration; cut } ->
      Json.Obj
        [
          ("kind", Json.String "partition");
          ("chain", Json.String chain);
          ("at", f at);
          ("duration", f duration);
          ("cut", Json.Int cut);
        ]
  | Delay { chain; at; duration; factor } ->
      Json.Obj
        [
          ("kind", Json.String "delay");
          ("chain", Json.String chain);
          ("at", f at);
          ("duration", f duration);
          ("factor", f factor);
        ]
  | Drop { chain; at; duration; p } ->
      Json.Obj
        [
          ("kind", Json.String "drop");
          ("chain", Json.String chain);
          ("at", f at);
          ("duration", f duration);
          ("p", f p);
        ]
  | Mining_stall { chain; at; duration } ->
      Json.Obj
        [
          ("kind", Json.String "mining_stall");
          ("chain", Json.String chain);
          ("at", f at);
          ("duration", f duration);
        ]
  | Mining_burst { chain; at; blocks } ->
      Json.Obj
        [
          ("kind", Json.String "mining_burst");
          ("chain", Json.String chain);
          ("at", f at);
          ("blocks", Json.Int blocks);
        ]
  | Witness_outage { at; duration } ->
      Json.Obj [ ("kind", Json.String "witness_outage"); ("at", f at); ("duration", f duration) ]

let fault_of_json j =
  let fl k = Json.to_float (Json.member k j) in
  let it k = Json.to_int (Json.member k j) in
  let st k = Json.to_str (Json.member k j) in
  (* Injection trusts these ranges: a negative party index escapes its
     wrap round the spec's parties, the network raises on a negative
     delay factor or a drop probability outside [0, 1], and a negative
     time or count would replay as a different plan. *)
  let count k = match it k with n when n >= 0 -> n | n -> fail "negative %s: %d" k n in
  let nonneg k = match fl k with x when x >= 0.0 -> x | x -> fail "negative %s: %g" k x in
  let prob () =
    match fl "p" with
    | p when p >= 0.0 && p <= 1.0 -> p
    | p -> fail "drop probability out of range: %g" p
  in
  match st "kind" with
  | "crash" -> Crash { party = count "party"; at = nonneg "at" }
  | "restart" -> Restart { party = count "party"; at = nonneg "at" }
  | "partition" ->
      Partition
        { chain = st "chain"; at = nonneg "at"; duration = nonneg "duration"; cut = count "cut" }
  | "delay" ->
      Delay
        {
          chain = st "chain";
          at = nonneg "at";
          duration = nonneg "duration";
          factor = nonneg "factor";
        }
  | "drop" -> Drop { chain = st "chain"; at = nonneg "at"; duration = nonneg "duration"; p = prob () }
  | "mining_stall" ->
      Mining_stall { chain = st "chain"; at = nonneg "at"; duration = nonneg "duration" }
  | "mining_burst" -> Mining_burst { chain = st "chain"; at = nonneg "at"; blocks = count "blocks" }
  | "witness_outage" -> Witness_outage { at = nonneg "at"; duration = nonneg "duration" }
  | k -> fail "unknown fault kind %S" k

let to_json plan = Json.List (List.map fault_to_json plan)

let of_json = function
  | Json.List faults -> List.map fault_of_json faults
  | _ -> fail "fault plan must be a JSON list"

let to_string plan = Json.to_string (to_json plan)

let of_string s = of_json (Json.of_string s)

(* ------------------------------------------------------------------ *)
(* Pretty-printing *)

let pp_fault ppf = function
  | Crash { party; at } -> Fmt.pf ppf "@[t=%.1f crash party %d@]" at party
  | Restart { party; at } -> Fmt.pf ppf "@[t=%.1f restart party %d@]" at party
  | Partition { chain; at; duration; cut } ->
      Fmt.pf ppf "@[t=%.1f partition %s (cut %d) for %.1fs@]" at chain cut duration
  | Delay { chain; at; duration; factor } ->
      Fmt.pf ppf "@[t=%.1f delay %s x%.1f for %.1fs@]" at chain factor duration
  | Drop { chain; at; duration; p } ->
      Fmt.pf ppf "@[t=%.1f drop %s p=%.2f for %.1fs@]" at chain p duration
  | Mining_stall { chain; at; duration } ->
      Fmt.pf ppf "@[t=%.1f mining stall %s for %.1fs@]" at chain duration
  | Mining_burst { chain; at; blocks } ->
      Fmt.pf ppf "@[t=%.1f mining burst %s +%d blocks@]" at chain blocks
  | Witness_outage { at; duration } ->
      Fmt.pf ppf "@[t=%.1f witness outage for %.1fs@]" at duration

let pp ppf plan =
  if plan = [] then Fmt.pf ppf "(no faults)"
  else Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_fault) plan

let pp_spec ppf spec =
  Fmt.pf ppf "seed=%d %s parties=%d chains=%d%s" spec.seed (shape_to_string spec.shape)
    spec.parties spec.nchains
    ((if spec.extra_edges > 0 then Printf.sprintf " chords=%d" spec.extra_edges else "")
    ^ if spec.load > 1 then Printf.sprintf " load=%d" spec.load else "")
