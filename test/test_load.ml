(* Tests for the load engine: workload sampling determinism, Zipf
   popularity skew, conservation of value under many concurrent swaps,
   byte-identical sweeps across --jobs, and the atomicity invariants the
   load report classifies against. *)

module Rng = Ac3_sim.Rng
module Amount = Ac3_chain.Amount
module Metrics = Ac3_obs.Metrics
module Obs = Ac3_obs.Obs
module Json = Ac3_crypto.Codec.Json
module Workload = Ac3_load.Workload
module Zipf = Ac3_load.Zipf
module Engine = Ac3_load.Engine

(* --- Zipf ---------------------------------------------------------------- *)

let test_zipf_prob_decreasing () =
  let z = Zipf.create ~n:16 ~s:1.1 in
  let total = ref 0.0 in
  for i = 0 to 15 do
    total := !total +. Zipf.prob z i;
    if i > 0 then
      Alcotest.(check bool)
        (Printf.sprintf "prob %d < prob %d" i (i - 1))
        true
        (Zipf.prob z i < Zipf.prob z (i - 1))
  done;
  Alcotest.(check (float 1e-9)) "probs sum to 1" 1.0 !total;
  (* s = 0 degenerates to uniform. *)
  let u = Zipf.create ~n:8 ~s:0.0 in
  for i = 0 to 7 do
    Alcotest.(check (float 1e-9)) "uniform" 0.125 (Zipf.prob u i)
  done

(* Empirical frequencies follow rank: with real skew and enough draws,
   lower ranks are drawn at least as often as higher ones. Deterministic
   seed, so this is a regression test, not a flaky statistical one. *)
let test_zipf_frequency_rank_monotone () =
  let n = 8 in
  let z = Zipf.create ~n ~s:1.2 in
  let rng = Rng.create 42 in
  let counts = Array.make n 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    let r = Zipf.sample z rng in
    Alcotest.(check bool) "rank in range" true (r >= 0 && r < n);
    counts.(r) <- counts.(r) + 1
  done;
  for i = 1 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "count rank %d >= rank %d" (i - 1) i)
      true
      (counts.(i - 1) >= counts.(i))
  done;
  Alcotest.(check int) "every draw counted" draws (Array.fold_left ( + ) 0 counts)

let qcheck_zipf_sample_deterministic =
  QCheck.Test.make ~name:"zipf sampling is a pure function of the seed" ~count:50
    QCheck.(pair (int_range 1 64) small_nat)
    (fun (n, seed) ->
      let z = Zipf.create ~n ~s:1.1 in
      let draw seed = List.init 100 (fun _ -> Zipf.sample z (Rng.create seed) |> string_of_int) in
      let one seed =
        let rng = Rng.create seed in
        List.init 100 (fun _ -> string_of_int (Zipf.sample z rng))
      in
      ignore (draw seed);
      one seed = one seed)

(* --- Workload sampling --------------------------------------------------- *)

let small_config =
  {
    Workload.default with
    Workload.swaps = 40;
    users = 10;
    chains = 3;
    zipf_exponent = 1.1;
    abandon_frac = 0.2;
  }

let qcheck_specs_deterministic =
  QCheck.Test.make ~name:"sample_specs replays byte-identically from the seed" ~count:30
    QCheck.small_nat
    (fun seed ->
      let sample () = Workload.sample_specs small_config (Rng.create seed) in
      sample () = sample ())

let qcheck_specs_well_formed =
  QCheck.Test.make ~name:"specs: distinct endpoints, indexed in launch order" ~count:30
    QCheck.small_nat
    (fun seed ->
      let specs = Workload.sample_specs small_config (Rng.create seed) in
      Array.length specs = small_config.Workload.swaps
      && Array.for_all
           (fun (s : Workload.spec) ->
             s.Workload.user_a <> s.Workload.user_b
             && s.Workload.chain_a <> s.Workload.chain_b
             && s.Workload.user_a >= 0
             && s.Workload.user_a < small_config.Workload.users
             && s.Workload.user_b >= 0
             && s.Workload.user_b < small_config.Workload.users
             && s.Workload.chain_a >= 0
             && s.Workload.chain_a < small_config.Workload.chains
             && s.Workload.chain_b >= 0
             && s.Workload.chain_b < small_config.Workload.chains)
           specs
      && Array.for_all (fun i -> specs.(i).Workload.index = i)
           (Array.init (Array.length specs) Fun.id))

(* A zero weight means the protocol is never drawn — the mix is a hard
   constraint, not a hint. *)
let qcheck_specs_respect_zero_weight =
  QCheck.Test.make ~name:"zero mix weight excludes the protocol" ~count:30 QCheck.small_nat
    (fun seed ->
      let c =
        { small_config with Workload.mix = { Workload.nolan = 0.0; herlihy = 1.0; ac3wn = 1.0 } }
      in
      let specs = Workload.sample_specs c (Rng.create seed) in
      Array.for_all (fun (s : Workload.spec) -> s.Workload.protocol <> Workload.Nolan) specs)

let qcheck_arrival_offsets_monotone =
  QCheck.Test.make ~name:"open-loop offsets are sorted and non-negative" ~count:30
    QCheck.(pair small_nat (float_range 0.1 10.0))
    (fun (seed, rate) ->
      let c = { small_config with Workload.arrival = Workload.Open_loop { rate } } in
      let offs = Workload.arrival_offsets c (Rng.create seed) in
      Array.length offs = c.Workload.swaps
      && Array.for_all (fun t -> t >= 0.0) offs
      && Array.for_all
           (fun i -> offs.(i) >= offs.(i - 1))
           (Array.init (Array.length offs - 1) (fun i -> i + 1)))

let test_closed_loop_has_no_offsets () =
  let c = { small_config with Workload.arrival = Workload.Closed_loop { clients = 4; think = 1.0 } } in
  Alcotest.(check int) "no precomputed offsets" 0
    (Array.length (Workload.arrival_offsets c (Rng.create 1)))

let test_validate_rejects_bad_configs () =
  let expect_invalid label c =
    match Workload.validate c with
    | () -> Alcotest.fail (label ^ ": accepted an invalid config")
    | exception Invalid_argument _ -> ()
  in
  let d = Workload.default in
  expect_invalid "swaps" { d with Workload.swaps = 0 };
  expect_invalid "users" { d with Workload.users = 1 };
  expect_invalid "chains" { d with Workload.chains = 1 };
  expect_invalid "rate" { d with Workload.arrival = Workload.Open_loop { rate = 0.0 } };
  expect_invalid "clients" { d with Workload.arrival = Workload.Closed_loop { clients = 0; think = 1.0 } };
  expect_invalid "mix" { d with Workload.mix = { Workload.nolan = 0.0; herlihy = 0.0; ac3wn = 0.0 } };
  expect_invalid "negative weight" { d with Workload.mix = { Workload.nolan = -1.0; herlihy = 1.0; ac3wn = 1.0 } };
  expect_invalid "abandon" { d with Workload.abandon_frac = 1.5 };
  expect_invalid "zipf" { d with Workload.zipf_exponent = -0.1 };
  expect_invalid "deadline" { d with Workload.deadline = 0.0 };
  (* NaN passes every range comparison, and infinities never let a run
     reach its horizon: each float field must be finite. *)
  List.iter
    (fun x ->
      let tag what = Printf.sprintf "%s = %g" what x in
      expect_invalid (tag "rate") { d with Workload.arrival = Workload.Open_loop { rate = x } };
      expect_invalid (tag "think")
        { d with Workload.arrival = Workload.Closed_loop { clients = 2; think = x } };
      expect_invalid (tag "nolan weight") { d with Workload.mix = { d.Workload.mix with Workload.nolan = x } };
      expect_invalid (tag "herlihy weight")
        { d with Workload.mix = { d.Workload.mix with Workload.herlihy = x } };
      expect_invalid (tag "ac3wn weight") { d with Workload.mix = { d.Workload.mix with Workload.ac3wn = x } };
      expect_invalid (tag "zipf") { d with Workload.zipf_exponent = x };
      expect_invalid (tag "abandon") { d with Workload.abandon_frac = x };
      expect_invalid (tag "deadline") { d with Workload.deadline = x };
      expect_invalid (tag "block interval") { d with Workload.block_interval = x };
      expect_invalid (tag "poll interval") { d with Workload.poll_interval = x })
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Workload.validate d

(* --- Engine -------------------------------------------------------------- *)

(* A workload small enough for the test suite but contended enough to
   exercise shared wallets: few users, hot Zipf skew, all protocols. *)
let engine_config =
  {
    Workload.default with
    Workload.swaps = 12;
    users = 6;
    chains = 2;
    arrival = Workload.Open_loop { rate = 0.5 };
    deadline = 300.0;
  }

let metrics_fingerprint (obs : Obs.t) = Json.to_string (Metrics.to_json obs.Obs.metrics)

let test_engine_seed_replay_deterministic () =
  let run () = Engine.run ~seed:5 engine_config in
  let r1, o1 = run () in
  let r2, o2 = run () in
  Alcotest.(check string) "rendered report identical" (Engine.render r1) (Engine.render r2);
  Alcotest.(check string) "metrics identical" (metrics_fingerprint o1) (metrics_fingerprint o2);
  Alcotest.(check int) "all swaps accounted" engine_config.Workload.swaps
    (r1.Engine.committed + r1.Engine.aborted + r1.Engine.timed_out + r1.Engine.non_atomic
    + r1.Engine.rejected + r1.Engine.in_flight);
  Alcotest.(check bool) "some swaps commit" true (r1.Engine.committed > 0)

let test_engine_conserves_value () =
  let _, u = Engine.run_universe ~seed:5 engine_config in
  let checks = Engine.supply_check u in
  Alcotest.(check bool) "checked every chain" true (List.length checks >= 3);
  List.iter
    (fun (chain, expected, actual) ->
      Alcotest.(check bool)
        (Printf.sprintf "supply conserved on %s" chain)
        true
        (Amount.equal expected actual))
    checks

(* AC3WN's witness decides commit/abort for all edges at once, so a
   mixed settlement — the classifier's Non_atomic — can only ever come
   from the timelock protocols. This is the paper's claim, surfaced as
   a load-report invariant. *)
let test_engine_non_atomic_never_ac3wn () =
  let check_report (r : Engine.report) =
    List.iter
      (fun (res : Engine.swap_result) ->
        if res.Engine.cls = Engine.Non_atomic then
          Alcotest.(check bool) "violation is a timelock protocol" true
            (res.Engine.spec.Workload.protocol <> Workload.Ac3wn))
      r.Engine.results
  in
  (* Seeds chosen to include at least one that produces a violation
     under contention, so the invariant is actually exercised. *)
  let summary = Engine.sweep ~jobs:1 ~seed:5 ~runs:2 engine_config in
  List.iter check_report summary.Engine.reports

let test_engine_sweep_jobs_byte_identical () =
  let sweep jobs = Engine.sweep ~jobs ~sanitize:(jobs = 4) ~seed:9 ~runs:2 engine_config in
  let s1 = sweep 1 in
  let s2 = sweep 2 in
  let s4 = sweep 4 in
  let render = Engine.render_sweep in
  Alcotest.(check string) "render jobs 2 = jobs 1" (render s1) (render s2);
  Alcotest.(check string) "render jobs 4 = jobs 1" (render s1) (render s4);
  Alcotest.(check string) "metrics jobs 2 = jobs 1" (metrics_fingerprint s1.Engine.obs)
    (metrics_fingerprint s2.Engine.obs);
  Alcotest.(check string) "metrics jobs 4 = jobs 1" (metrics_fingerprint s1.Engine.obs)
    (metrics_fingerprint s4.Engine.obs)

let () =
  Alcotest.run "load"
    [
      ( "zipf",
        [
          Alcotest.test_case "prob decreasing, sums to 1" `Quick test_zipf_prob_decreasing;
          Alcotest.test_case "frequency follows rank" `Quick test_zipf_frequency_rank_monotone;
          QCheck_alcotest.to_alcotest qcheck_zipf_sample_deterministic;
        ] );
      ( "workload",
        [
          QCheck_alcotest.to_alcotest qcheck_specs_deterministic;
          QCheck_alcotest.to_alcotest qcheck_specs_well_formed;
          QCheck_alcotest.to_alcotest qcheck_specs_respect_zero_weight;
          QCheck_alcotest.to_alcotest qcheck_arrival_offsets_monotone;
          Alcotest.test_case "closed loop has no offsets" `Quick test_closed_loop_has_no_offsets;
          Alcotest.test_case "validate rejects bad configs" `Quick test_validate_rejects_bad_configs;
        ] );
      ( "engine",
        [
          Alcotest.test_case "seed replay is deterministic" `Slow
            test_engine_seed_replay_deterministic;
          Alcotest.test_case "value is conserved" `Slow test_engine_conserves_value;
          Alcotest.test_case "non-atomic never ac3wn" `Slow test_engine_non_atomic_never_ac3wn;
          Alcotest.test_case "sweep byte-identical across jobs" `Slow
            test_engine_sweep_jobs_byte_identical;
        ] );
    ]
