(* Protocol-level tests: AC3WN commit/abort/crash behaviour, the Herlihy
   and Nolan baselines (including the Sec 1 atomicity violation), AC3TW
   with Trent, the analytical models, and the 51% attack machinery.

   These run full multi-chain simulations; block intervals are kept small
   so each case finishes in well under a minute of wall time. *)

module Engine = Ac3_sim.Engine
module Rng = Ac3_sim.Rng
module Keys = Ac3_crypto.Keys
module Ac2t = Ac3_contract.Ac2t
open Ac3_core

let fast_universe ?(seed = 7) ~chains n =
  (* Per-seed identity namespaces: each test gets fresh MSS signing keys. *)
  Scenarios.make_universe ~seed ~block_interval:5.0 ~confirm_depth:3 ~chains
    (Scenarios.identities ~ns:(Printf.sprintf "t%d" seed) n) ()

let ok = function Ok r -> r | Error e -> Alcotest.fail e

let ac3wn_config =
  {
    (Ac3wn.default_config ~witness_chain:"witness") with
    Ac3wn.evidence_depth = 2;
    decision_depth = 3;
    timeout = 5000.0;
  }

(* --- AC3WN ---------------------------------------------------------------- *)

let test_ac3wn_two_party_commit () =
  let u, participants = fast_universe ~seed:101 ~chains:[ "btc"; "eth" ] 2 in
  Universe.run_until u 50.0;
  let ids = List.map Participant.identity participants in
  let graph = Scenarios.two_party_graph ~chain1:"btc" ~chain2:"eth" ids ~timestamp:(Universe.now u) in
  let before_a = Participant.balance_on (List.hd participants) "eth" in
  let r = Ac3wn.execute u ~config:ac3wn_config ~graph ~participants () |> ok in
  Alcotest.(check bool) "committed" true r.Ac3wn.committed;
  Alcotest.(check bool) "atomic" true r.Ac3wn.atomic;
  Alcotest.(check bool) "has latency" true (r.Ac3wn.latency <> None);
  (* Alice actually received Bob's ethers (minus her call fee). *)
  let after_a = Participant.balance_on (List.hd participants) "eth" in
  Alcotest.(check bool) "alice richer on eth" true (Ac3_chain.Amount.compare after_a before_a > 0)

let test_ac3wn_fees_match_model () =
  (* Sec 6.2: AC3WN pays (N+1) deployments and (N+1) calls. *)
  let u, participants = fast_universe ~seed:102 ~chains:[ "btc"; "eth" ] 2 in
  Universe.run_until u 50.0;
  let ids = List.map Participant.identity participants in
  let graph = Scenarios.two_party_graph ~chain1:"btc" ~chain2:"eth" ids ~timestamp:(Universe.now u) in
  let r = Ac3wn.execute u ~config:ac3wn_config ~graph ~participants () |> ok in
  Alcotest.(check bool) "committed" true r.Ac3wn.committed;
  let count kind = List.length (List.filter (fun f -> f.Ac3wn.kind = kind) r.Ac3wn.fees) in
  Alcotest.(check int) "1 SCw deploy" 1 (count Ac3wn.Scw_deploy);
  Alcotest.(check int) "N edge deploys" 2 (count Ac3wn.Edge_deploy);
  Alcotest.(check int) "1 authorize call" 1 (count Ac3wn.Authorize);
  Alcotest.(check int) "N redeems" 2 (count Ac3wn.Redeem)

let test_ac3wn_abort_refunds_all () =
  (* Bob never deploys (crashes immediately); the others request the
     refund authorization, and Alice's contract is refunded: atomic. *)
  let u, participants = fast_universe ~seed:103 ~chains:[ "btc"; "eth" ] 2 in
  Universe.run_until u 50.0;
  let ids = List.map Participant.identity participants in
  let graph = Scenarios.two_party_graph ~chain1:"btc" ~chain2:"eth" ids ~timestamp:(Universe.now u) in
  let bob = List.nth participants 1 in
  let hooks = [ ("scw_confirmed", fun () -> Participant.crash bob) ] in
  let r = Ac3wn.execute u ~config:ac3wn_config ~graph ~participants ~hooks ~abort_after:300.0 () |> ok in
  Alcotest.(check bool) "atomic" true r.Ac3wn.atomic;
  Alcotest.(check bool) "not committed" false r.Ac3wn.committed;
  Alcotest.(check bool) "aborted cleanly" true (Outcome.aborted r.Ac3wn.outcome)

let test_ac3wn_crash_after_decision_still_atomic () =
  (* The paper's headline claim: the same crash that costs Bob his coins
     under Nolan's protocol is harmless under AC3WN. Bob crashes right
     when the commit decision is reached, missing his redemption window
     — but there are no timelocks, so he redeems after recovering. *)
  let u, participants = fast_universe ~seed:104 ~chains:[ "btc"; "eth" ] 2 in
  Universe.run_until u 50.0;
  let ids = List.map Participant.identity participants in
  let graph = Scenarios.two_party_graph ~chain1:"btc" ~chain2:"eth" ids ~timestamp:(Universe.now u) in
  let bob = List.nth participants 1 in
  let hooks =
    [
      ( "authorize_redeem_submitted",
        fun () ->
          Participant.crash bob;
          (* Recover long after every timelock-style deadline would have
             expired. *)
          ignore
            (Engine.schedule (Universe.engine u) ~delay:600.0 (fun () -> Participant.recover bob)) );
    ]
  in
  let r = Ac3wn.execute u ~config:ac3wn_config ~graph ~participants ~hooks () |> ok in
  Alcotest.(check bool) "committed" true r.Ac3wn.committed;
  Alcotest.(check bool) "atomic despite crash" true r.Ac3wn.atomic

let test_ac3wn_cyclic_graph () =
  (* Figure 7a: executable by AC3WN. *)
  let u, participants = fast_universe ~seed:105 ~chains:[ "c1"; "c2"; "c3" ] 3 in
  Universe.run_until u 50.0;
  let ids = List.map Participant.identity participants in
  let graph = Scenarios.cyclic_graph ~chains:[ "c1"; "c2"; "c3" ] ids ~timestamp:(Universe.now u) in
  Alcotest.(check bool) "graph is cyclic" true (Ac2t.classify graph = Ac2t.Cyclic);
  let r = Ac3wn.execute u ~config:{ ac3wn_config with Ac3wn.timeout = 8000.0 } ~graph ~participants () |> ok in
  Alcotest.(check bool) "committed" true r.Ac3wn.committed;
  Alcotest.(check bool) "atomic" true r.Ac3wn.atomic

let test_ac3wn_disconnected_graph () =
  (* Figure 7b: executable by AC3WN. *)
  let u, participants = fast_universe ~seed:106 ~chains:[ "c1"; "c2"; "c3"; "c4" ] 4 in
  Universe.run_until u 50.0;
  let ids = List.map Participant.identity participants in
  let graph =
    Scenarios.disconnected_graph ~chains:[ "c1"; "c2"; "c3"; "c4" ] ids ~timestamp:(Universe.now u)
  in
  Alcotest.(check bool) "graph is disconnected" true (Ac2t.classify graph = Ac2t.Disconnected);
  let r = Ac3wn.execute u ~config:{ ac3wn_config with Ac3wn.timeout = 8000.0 } ~graph ~participants () |> ok in
  Alcotest.(check bool) "committed" true r.Ac3wn.committed;
  Alcotest.(check bool) "atomic" true r.Ac3wn.atomic

(* --- Herlihy / Nolan -------------------------------------------------------- *)

let test_herlihy_two_party_commit () =
  let u, participants = fast_universe ~seed:107 ~chains:[ "btc"; "eth" ] 2 in
  Universe.run_until u 50.0;
  let ids = List.map Participant.identity participants in
  let graph = Scenarios.two_party_graph ~chain1:"btc" ~chain2:"eth" ids ~timestamp:(Universe.now u) in
  let config = { (Herlihy.default_config ~delta:(Universe.max_delta u)) with Herlihy.timeout = 5000.0 } in
  match Herlihy.execute u ~config ~graph ~participants () with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "committed" true r.Herlihy.committed;
      Alcotest.(check bool) "atomic" true r.Herlihy.atomic

let test_nolan_crash_violates_atomicity () =
  (* The introduction's failure case: Bob crashes after Alice redeems;
     t1 expires; Alice refunds SC1 and keeps both assets. *)
  let u, participants = fast_universe ~seed:108 ~chains:[ "btc"; "eth" ] 2 in
  Universe.run_until u 50.0;
  let ids = List.map Participant.identity participants in
  let graph = Scenarios.two_party_graph ~chain1:"btc" ~chain2:"eth" ids ~timestamp:(Universe.now u) in
  let bob = List.nth participants 1 in
  (* Edge 1 = (Bob -> Alice) on eth; its redemption by Alice reveals the
     secret — the moment Bob crashes. *)
  let hooks = [ ("redeem:1", fun () -> Participant.crash bob) ] in
  let config = { (Herlihy.default_config ~delta:(Universe.max_delta u)) with Herlihy.timeout = 5000.0 } in
  let r = Nolan.execute u ~config ~graph ~participants ~hooks () |> ok in
  Alcotest.(check bool) "NOT atomic (Bob lost his coins)" false r.Herlihy.atomic;
  (* Specifically: eth edge redeemed (by Alice), btc edge refunded (to
     Alice). *)
  let statuses = Outcome.statuses r.Herlihy.outcome in
  Alcotest.(check bool) "btc refunded" true (List.nth statuses 0 = Outcome.Refunded);
  Alcotest.(check bool) "eth redeemed" true (List.nth statuses 1 = Outcome.Redeemed)

let test_nolan_honest_commit () =
  let u, participants = fast_universe ~seed:109 ~chains:[ "btc"; "eth" ] 2 in
  Universe.run_until u 50.0;
  let ids = List.map Participant.identity participants in
  let graph = Scenarios.two_party_graph ~chain1:"btc" ~chain2:"eth" ids ~timestamp:(Universe.now u) in
  let config = { (Herlihy.default_config ~delta:(Universe.max_delta u)) with Herlihy.timeout = 5000.0 } in
  let r = Nolan.execute u ~config ~graph ~participants () |> ok in
  Alcotest.(check bool) "committed" true r.Herlihy.committed;
  Alcotest.(check bool) "atomic" true r.Herlihy.atomic

let test_herlihy_rejects_fig7_graphs () =
  let u, participants = fast_universe ~seed:110 ~chains:[ "c1"; "c2"; "c3"; "c4" ] 4 in
  Universe.run_until u 20.0;
  let ids = List.map Participant.identity participants in
  let config = Herlihy.default_config ~delta:(Universe.max_delta u) in
  let disconnected =
    Scenarios.disconnected_graph ~chains:[ "c1"; "c2"; "c3"; "c4" ] ids ~timestamp:(Universe.now u)
  in
  Alcotest.(check bool) "disconnected rejected" true
    (Result.is_error (Herlihy.execute u ~config ~graph:disconnected ~participants ()));
  let ids3 = [ List.nth ids 0; List.nth ids 1; List.nth ids 2 ] in
  let participants3 = [ List.nth participants 0; List.nth participants 1; List.nth participants 2 ] in
  let cyclic = Scenarios.cyclic_graph ~chains:[ "c1"; "c2"; "c3" ] ids3 ~timestamp:(Universe.now u) in
  Alcotest.(check bool) "fig 7a rejected" true
    (Result.is_error (Herlihy.execute u ~config ~graph:cyclic ~participants:participants3 ()))

let test_nolan_refuses_multi_party_graphs () =
  (* Nolan is the two-party case: a ring or a cyclic graph is refused
     with [Error], like any graph Herlihy cannot execute. *)
  let u, participants = fast_universe ~seed:115 ~chains:[ "c1"; "c2"; "c3" ] 3 in
  Universe.run_until u 20.0;
  let ids = List.map Participant.identity participants in
  let config = Herlihy.default_config ~delta:(Universe.max_delta u) in
  List.iter
    (fun (name, graph) ->
      match Nolan.execute u ~config ~graph ~participants () with
      | Error e ->
          Alcotest.(check bool) (name ^ " refused as not two-party") true
            (Astring.String.is_infix ~affix:"not a two-party swap" e)
      | Ok _ -> Alcotest.fail (name ^ " accepted by Nolan"))
    [
      ("ring", Scenarios.ring_graph ~chains:[ "c1"; "c2"; "c3" ] ids ~timestamp:(Universe.now u));
      ("cyclic", Scenarios.cyclic_graph ~chains:[ "c1"; "c2"; "c3" ] ids ~timestamp:(Universe.now u));
    ]

let test_herlihy_sequential_deployment () =
  (* Deployment rounds must be sequential: on a 3-ring, deploy:1 comes a
     full confirmation after deploy:0, and deploy:2 after deploy:1. *)
  let u, participants = fast_universe ~seed:111 ~chains:[ "c1"; "c2"; "c3" ] 3 in
  Universe.run_until u 50.0;
  let ids = List.map Participant.identity participants in
  let graph = Scenarios.ring_graph ~chains:[ "c1"; "c2"; "c3" ] ids ~timestamp:(Universe.now u) in
  let config = { (Herlihy.default_config ~delta:(Universe.max_delta u)) with Herlihy.timeout = 8000.0 } in
  match Herlihy.execute u ~config ~graph ~participants () with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "committed" true r.Herlihy.committed;
      let t n = Option.get (Ac3_sim.Trace.time_of r.Herlihy.trace (Printf.sprintf "deploy:%d" n)) in
      Alcotest.(check bool) "round 1 after round 0" true (t 1 -. t 0 > 5.0);
      Alcotest.(check bool) "round 2 after round 1" true (t 2 -. t 1 > 5.0)

(* --- AC3TW / Trent ------------------------------------------------------------ *)

let test_ac3tw_commit () =
  let u, participants = fast_universe ~seed:112 ~chains:[ "btc"; "eth" ] 2 in
  Universe.run_until u 50.0;
  let trent = Trent.create u ~name:"core-test-trent" in
  let ids = List.map Participant.identity participants in
  let graph = Scenarios.two_party_graph ~chain1:"btc" ~chain2:"eth" ids ~timestamp:(Universe.now u) in
  match
    Ac3tw.execute u
      ~config:{ Ac3tw.default_config with Ac3tw.timeout = 5000.0 }
      ~trent ~graph ~participants ()
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "committed" true r.Ac3tw.committed;
      Alcotest.(check bool) "atomic" true r.Ac3tw.atomic

let test_ac3tw_abort () =
  let u, participants = fast_universe ~seed:113 ~chains:[ "btc"; "eth" ] 2 in
  Universe.run_until u 50.0;
  let trent = Trent.create u ~name:"core-test-trent-2" in
  let ids = List.map Participant.identity participants in
  let graph = Scenarios.two_party_graph ~chain1:"btc" ~chain2:"eth" ids ~timestamp:(Universe.now u) in
  let bob = List.nth participants 1 in
  Participant.crash bob;
  match
    Ac3tw.execute u
      ~config:{ Ac3tw.default_config with Ac3tw.timeout = 5000.0 }
      ~trent ~graph ~participants ~abort_after:200.0 ()
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "atomic" true r.Ac3tw.atomic;
      Alcotest.(check bool) "not committed" false r.Ac3tw.committed

let test_trent_mutual_exclusion () =
  let u, _ = fast_universe ~seed:114 ~chains:[ "btc" ] 2 in
  let trent = Trent.create u ~name:"core-test-trent-3" in
  let ids = Scenarios.identities 2 in
  let graph =
    Ac2t.create
      ~edges:
        [
          {
            Ac2t.from_pk = Keys.public (List.nth ids 0);
            to_pk = Keys.public (List.nth ids 1);
            amount = Ac3_chain.Amount.of_int 10;
            chain = "btc";
          };
        ]
      ~timestamp:0.0
  in
  let ms = Ac2t.multisign graph ids in
  let ms_id = Result.get_ok (Trent.register trent ~graph ~ms) in
  (* Refund decided first: redeem forever impossible. *)
  Alcotest.(check bool) "refund ok" true (Result.is_ok (Trent.request_refund trent ~ms_id));
  Alcotest.(check bool) "refund idempotent" true (Result.is_ok (Trent.request_refund trent ~ms_id));
  Alcotest.(check bool) "redeem now impossible" true
    (Result.is_error (Trent.request_redeem trent ~ms_id ~contracts:[ Ac3_crypto.Sha256.digest "x" ]));
  (* Duplicate registrations rejected. *)
  Alcotest.(check bool) "duplicate registration" true
    (Result.is_error (Trent.register trent ~graph ~ms))

(* --- Analysis ------------------------------------------------------------------ *)

let test_analysis_latency_model () =
  Alcotest.(check (float 1e-9)) "herlihy diam 2" 4.0 (Analysis.herlihy_latency ~diam:2);
  Alcotest.(check (float 1e-9)) "herlihy diam 10" 20.0 (Analysis.herlihy_latency ~diam:10);
  Alcotest.(check (float 1e-9)) "ac3wn constant" 4.0 Analysis.ac3wn_latency;
  let series = Analysis.figure10 ~max_diam:10 in
  Alcotest.(check int) "series length" 9 (List.length series);
  List.iter
    (fun (diam, h, w) ->
      Alcotest.(check bool) "herlihy grows" true (h = 2.0 *. float_of_int diam);
      Alcotest.(check (float 1e-9)) "ac3wn flat" 4.0 w)
    series

let test_analysis_cost_model () =
  Alcotest.(check (float 1e-9)) "herlihy 2 edges" (2.0 *. 6000.0)
    (Analysis.herlihy_cost ~n:2 ~fd:4000.0 ~ffc:2000.0);
  Alcotest.(check (float 1e-9)) "ac3wn 2 edges" (3.0 *. 6000.0)
    (Analysis.ac3wn_cost ~n:2 ~fd:4000.0 ~ffc:2000.0);
  Alcotest.(check (float 1e-9)) "overhead 1/n" 0.5 (Analysis.cost_overhead_ratio ~n:2);
  (* The paper's dollar figures: ~$4 at $300/ETH, ~$2 at $140/ETH. *)
  Alcotest.(check bool) "usd at 300" true (abs_float (Analysis.scw_overhead_usd ~eth_usd:300.0 -. 4.0) < 0.5);
  Alcotest.(check bool) "usd at 140" true (abs_float (Analysis.scw_overhead_usd ~eth_usd:140.0 -. 2.0) < 0.5)

let test_analysis_depth_rule () =
  (* Paper: Va = $1M, Bitcoin witness (dh = 6, Ch = $300K) => d > 20. *)
  Alcotest.(check int) "paper example" 21 (Analysis.paper_example_depth ());
  Alcotest.(check bool) "monotone in value" true
    (Analysis.required_depth ~va:10_000_000.0 ~dh:6.0 ~ch:300_000.0
    > Analysis.required_depth ~va:1_000_000.0 ~dh:6.0 ~ch:300_000.0)

let test_analysis_throughput () =
  Alcotest.(check (float 1e-9)) "paper example: min is Bitcoin's 7" 7.0
    (Analysis.paper_example_throughput ());
  Alcotest.(check (float 1e-9)) "min of combo" 25.0 (Analysis.ac2t_throughput [ 25.0; 56.0; 61.0 ])

(* --- Attack ---------------------------------------------------------------------- *)

let test_attack_race_depth_decay () =
  (* Success probability decays with depth; a 30% adversary rarely beats
     depth 6 and often beats depth 0. *)
  let rng = Rng.create 999 in
  let shallow = Attack.estimate rng ~q:0.3 ~d:0 ~block_interval:600.0 ~trials:400 ~cost_per_hour:300_000.0 in
  let deep = Attack.estimate rng ~q:0.3 ~d:6 ~block_interval:600.0 ~trials:400 ~cost_per_hour:300_000.0 in
  Alcotest.(check bool) "shallow often succeeds" true (shallow.Attack.success_rate > 0.2);
  Alcotest.(check bool) "deep rarely succeeds" true (deep.Attack.success_rate < 0.05);
  Alcotest.(check bool) "decay" true (deep.Attack.success_rate < shallow.Attack.success_rate)

let test_attack_race_matches_analytic () =
  let rng = Rng.create 1000 in
  let est = Attack.estimate rng ~q:0.25 ~d:2 ~block_interval:600.0 ~trials:3000 ~cost_per_hour:0.0 in
  (* Monte Carlo within a few points of the gambler's-ruin bound. *)
  Alcotest.(check bool) "close to analytic" true
    (abs_float (est.Attack.success_rate -. est.Attack.analytic) < 0.03)

let test_attack_majority_always_wins () =
  let rng = Rng.create 1001 in
  Alcotest.(check (float 1e-9)) "analytic is 1" 1.0 (Analysis.attack_success_probability ~q:0.6 ~d:10);
  let r = Attack.race rng ~q:0.6 ~d:3 ~block_interval:600.0 ~give_up:100000 in
  Alcotest.(check bool) "race won" true r.Attack.success

let test_attack_reorg_demo () =
  (* The concrete chain machinery really does flip a buried decision when
     a heavier branch arrives. *)
  let flipped, decision_still_active, _store = Attack.run_reorg_demo ~fork_depth:3 () in
  Alcotest.(check bool) "tip flipped" true flipped;
  Alcotest.(check bool) "buried decision no longer active" false decision_still_active

(* --- Universe ----------------------------------------------------------------- *)

let test_universe_delta_and_chains () =
  let u, _ = fast_universe ~seed:300 ~chains:[ "btc"; "eth" ] 2 in
  Alcotest.(check (list string)) "chains" [ "btc"; "eth"; "witness" ] (Universe.chain_ids u);
  (* Δ = confirm_depth (3) x interval (5). *)
  Alcotest.(check (float 1e-9)) "delta" 15.0 (Universe.delta u "btc");
  Alcotest.(check (float 1e-9)) "max delta" 15.0 (Universe.max_delta u)

let test_universe_duplicate_chain_rejected () =
  let u, _ = fast_universe ~seed:301 ~chains:[ "btc" ] 2 in
  Alcotest.check_raises "duplicate" (Invalid_argument "Universe: duplicate chain btc")
    (fun () ->
      ignore
        (Universe.add_chain u (Ac3_chain.Params.make "btc")))

let test_universe_stable_checkpoint_on_chain () =
  let u, _ = fast_universe ~seed:302 ~chains:[ "btc" ] 2 in
  Universe.run_until u 100.0;
  let cp = Universe.stable_checkpoint u "btc" in
  let node = Universe.gateway u "btc" in
  let store = Ac3_chain.Node.store node in
  (* The checkpoint is on the active chain, confirm_depth below tip. *)
  Alcotest.(check bool) "on active chain" true
    (Ac3_chain.Store.is_active store (Ac3_chain.Block.hash_header cp));
  Alcotest.(check int) "at depth" (Ac3_chain.Store.tip_height store - 3) cp.Ac3_chain.Block.height

(* --- Outcome logic -------------------------------------------------------------- *)

let mk_outcome statuses =
  let edge =
    {
      Ac2t.from_pk = Keys.public (Keys.create "o-a");
      to_pk = Keys.public (Keys.create "o-b");
      amount = Ac3_chain.Amount.of_int 1;
      chain = "c";
    }
  in
  { Outcome.edges = List.map (fun status -> { Outcome.edge; contract_id = None; status }) statuses }

let test_outcome_logic () =
  let open Outcome in
  Alcotest.(check bool) "all RD atomic" true (atomic (mk_outcome [ Redeemed; Redeemed ]));
  Alcotest.(check bool) "all RF atomic" true (atomic (mk_outcome [ Refunded; Refunded ]));
  Alcotest.(check bool) "RF+missing atomic" true (atomic (mk_outcome [ Refunded; Missing ]));
  Alcotest.(check bool) "mixed violates" false (atomic (mk_outcome [ Redeemed; Refunded ]));
  Alcotest.(check bool) "published counts as nothing-redeemed" true
    (atomic (mk_outcome [ Published; Refunded ]));
  Alcotest.(check bool) "published is not settled" false
    (settled (mk_outcome [ Published; Refunded ]));
  Alcotest.(check bool) "committed = all redeemed" true (committed (mk_outcome [ Redeemed ]));
  Alcotest.(check bool) "aborted = settled and none redeemed" true
    (aborted (mk_outcome [ Refunded; Missing ]));
  Alcotest.(check bool) "unsettled is not aborted" false (aborted (mk_outcome [ Published ]))

let test_outcome_status_pairs () =
  (* Exhaustive truth table over every two-edge status combination,
     with expectations computed from the statuses alone. *)
  let open Outcome in
  let all = [ Missing; Published; Redeemed; Refunded ] in
  List.iter
    (fun s1 ->
      List.iter
        (fun s2 ->
          let o = mk_outcome [ s1; s2 ] in
          let name pred = Fmt.str "%s [%a;%a]" pred pp_status s1 pp_status s2 in
          let both p = p s1 && p s2 in
          Alcotest.(check bool) (name "all_redeemed") (both (( = ) Redeemed)) (all_redeemed o);
          Alcotest.(check bool) (name "none_redeemed") (both (( <> ) Redeemed)) (none_redeemed o);
          Alcotest.(check bool)
            (name "all_refunded_or_missing")
            (both (fun s -> s = Refunded || s = Missing))
            (all_refunded_or_missing o);
          Alcotest.(check bool) (name "atomic")
            (both (( = ) Redeemed) || both (( <> ) Redeemed))
            (atomic o);
          Alcotest.(check bool) (name "settled") (both (( <> ) Published)) (settled o);
          Alcotest.(check bool) (name "committed") (both (( = ) Redeemed)) (committed o);
          Alcotest.(check bool) (name "aborted")
            (both (fun s -> s = Refunded || s = Missing))
            (aborted o))
        all)
    all;
  (* The Missing/Published boundary: neither redeems, so both pair
     atomically with a refund — but only the never-deployed contract
     counts as settled (a published one still holds locked assets). *)
  Alcotest.(check bool) "missing+RF aborted" true (aborted (mk_outcome [ Missing; Refunded ]));
  Alcotest.(check bool) "published+RF not aborted" false
    (aborted (mk_outcome [ Published; Refunded ]));
  Alcotest.(check bool) "published+RF atomic" true (atomic (mk_outcome [ Published; Refunded ]))

(* --- Experiments (Sec 5.2, Sec 4.2 motivation, Lemma 5.3) -------------------- *)

let test_trent_unavailability_locks_assets () =
  (* E11: Trent crashes before deciding; AC3TW assets stay locked. *)
  let rows = Experiment.availability ~seed:4242 () in
  let tw = List.find (fun (r : Experiment.availability_row) -> r.protocol = "AC3TW") rows in
  let wn = List.find (fun (r : Experiment.availability_row) -> r.protocol = "AC3WN") rows in
  Alcotest.(check bool) "AC3TW stuck" true
    (Astring.String.is_prefix ~affix:"STUCK" tw.Experiment.result);
  Alcotest.(check string) "AC3WN commits" "committed (atomic)" wn.Experiment.result

let test_scalability_independent_witnesses () =
  (* E10 / Sec 5.2: two concurrent AC2Ts with their own witness networks
     both commit, at roughly the single-transaction latency. *)
  let rows = Experiment.scalability ~ks:[ 2 ] ~seed:555 () in
  List.iter
    (fun (r : Experiment.scalability_row) ->
      Alcotest.(check bool) "all committed" true r.Experiment.all_committed;
      Alcotest.(check bool) "latency stays near 4-6 delta" true
        (r.Experiment.mean_latency_delta > 3.0 && r.Experiment.mean_latency_delta < 8.0))
    rows

let test_fork_trial_depth_zero_conflicts () =
  (* E9: with d = 0 and a long partition, both conflicting decisions are
     (almost) always buried — the precondition of a violation. *)
  Alcotest.(check bool) "conflict at d=0" true
    (Experiment.fork_trial ~seed:31 ~d:0 ~window:80.0)

let test_analysis_attack_probability_bounds () =
  Alcotest.(check bool) "probability in [0,1]" true
    (List.for_all
       (fun (q, d) ->
         let p = Analysis.attack_success_probability ~q ~d in
         p >= 0.0 && p <= 1.0)
       [ (0.1, 0); (0.49, 3); (0.5, 5); (0.9, 2) ]);
  Alcotest.(check bool) "monotone decreasing in d" true
    (Analysis.attack_success_probability ~q:0.3 ~d:5
    < Analysis.attack_success_probability ~q:0.3 ~d:1)

let () =
  Alcotest.run "core"
    [
      ( "ac3wn",
        [
          Alcotest.test_case "two-party commit" `Slow test_ac3wn_two_party_commit;
          Alcotest.test_case "fees match Sec 6.2 model" `Slow test_ac3wn_fees_match_model;
          Alcotest.test_case "abort refunds all" `Slow test_ac3wn_abort_refunds_all;
          Alcotest.test_case "crash after decision still atomic" `Slow
            test_ac3wn_crash_after_decision_still_atomic;
          Alcotest.test_case "cyclic graph (Fig 7a)" `Slow test_ac3wn_cyclic_graph;
          Alcotest.test_case "disconnected graph (Fig 7b)" `Slow test_ac3wn_disconnected_graph;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "herlihy two-party commit" `Slow test_herlihy_two_party_commit;
          Alcotest.test_case "nolan crash violates atomicity" `Slow test_nolan_crash_violates_atomicity;
          Alcotest.test_case "nolan honest commit" `Slow test_nolan_honest_commit;
          Alcotest.test_case "herlihy rejects Fig 7 graphs" `Quick test_herlihy_rejects_fig7_graphs;
          Alcotest.test_case "nolan refuses multi-party graphs" `Quick
            test_nolan_refuses_multi_party_graphs;
          Alcotest.test_case "herlihy sequential deployment" `Slow test_herlihy_sequential_deployment;
        ] );
      ( "ac3tw",
        [
          Alcotest.test_case "commit" `Slow test_ac3tw_commit;
          Alcotest.test_case "abort" `Slow test_ac3tw_abort;
          Alcotest.test_case "trent mutual exclusion" `Quick test_trent_mutual_exclusion;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "latency model (Fig 10)" `Quick test_analysis_latency_model;
          Alcotest.test_case "cost model (Sec 6.2)" `Quick test_analysis_cost_model;
          Alcotest.test_case "depth rule (Sec 6.3)" `Quick test_analysis_depth_rule;
          Alcotest.test_case "throughput (Table 1)" `Quick test_analysis_throughput;
        ] );
      ( "attack",
        [
          Alcotest.test_case "depth decay" `Quick test_attack_race_depth_decay;
          Alcotest.test_case "matches analytic" `Quick test_attack_race_matches_analytic;
          Alcotest.test_case "majority always wins" `Quick test_attack_majority_always_wins;
          Alcotest.test_case "concrete reorg demo" `Quick test_attack_reorg_demo;
          Alcotest.test_case "analytic probability bounds" `Quick
            test_analysis_attack_probability_bounds;
        ] );
      ( "universe",
        [
          Alcotest.test_case "delta and chains" `Quick test_universe_delta_and_chains;
          Alcotest.test_case "duplicate chain rejected" `Quick test_universe_duplicate_chain_rejected;
          Alcotest.test_case "stable checkpoint on chain" `Quick
            test_universe_stable_checkpoint_on_chain;
        ] );
      ( "outcome",
        [
          Alcotest.test_case "atomicity logic" `Quick test_outcome_logic;
          Alcotest.test_case "exhaustive status pairs" `Quick test_outcome_status_pairs;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "Trent unavailability locks assets (E11)" `Slow
            test_trent_unavailability_locks_assets;
          Alcotest.test_case "independent witnesses scale (E10)" `Slow
            test_scalability_independent_witnesses;
          Alcotest.test_case "fork conflict at d=0 (E9)" `Slow test_fork_trial_depth_zero_conflicts;
        ] );
    ]
