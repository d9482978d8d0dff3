(* Static-verifier tests: graph lints, the timelock-order analysis
   (including the paper's Sec 3 violation reproduced without running the
   simulator), bounded exhaustive state-machine exploration of the three
   contract codes, and the AC3WN preflight. *)

module Keys = Ac3_crypto.Keys
module Ac2t = Ac3_contract.Ac2t
module Amount = Ac3_chain.Amount
module D = Ac3_verify.Diagnostic
module Graph_lint = Ac3_verify.Graph_lint
module Flow = Ac3_flow.Flow
module Timelock = Ac3_verify.Timelock
module State_machine = Ac3_verify.State_machine
module Probes = Ac3_verify.Probes
module V = Ac3_verify.Verify
open Ac3_core

let coin n = Amount.of_int n

let alice = Keys.create "verify-test-alice"

let bob = Keys.create "verify-test-bob"

let edge ?(amount = coin 100) from_ to_ chain =
  { Ac2t.from_pk = Keys.public from_; to_pk = Keys.public to_; amount; chain }

let ids n = Scenarios.identities ~ns:"tv" n

let has rule ds = D.by_rule rule ds <> []

let error_rules ds = List.sort_uniq String.compare (List.map (fun d -> d.D.rule) (D.errors ds))

(* Scenario graphs, built statically (no universe). *)
let two_party () = Scenarios.two_party_graph ~chain1:"btc" ~chain2:"eth" (ids 2) ~timestamp:1.0

let ring n =
  Scenarios.ring_graph ~chains:(List.init n (Printf.sprintf "chain%d")) (ids n) ~timestamp:1.0

let cyclic () = Scenarios.cyclic_graph ~chains:[ "c1"; "c2"; "c3" ] (ids 3) ~timestamp:1.0

let disconnected () =
  Scenarios.disconnected_graph ~chains:[ "c1"; "c2"; "c3"; "c4" ] (ids 4) ~timestamp:1.0

let supply_chain () =
  Scenarios.supply_chain_graph ~chains:[ "payments"; "titles"; "freight" ] (ids 4) ~timestamp:1.0

(* --- Pass 1: graph lints ------------------------------------------------- *)

let test_lint_edges_structural () =
  Alcotest.(check (list string)) "empty graph" [ "G001-empty-graph" ] (error_rules (Graph_lint.lint_edges []));
  Alcotest.(check (list string)) "self edge" [ "G002-self-edge" ]
    (error_rules (Graph_lint.lint_edges [ edge alice alice "btc" ]));
  Alcotest.(check (list string)) "zero amount" [ "G003-zero-amount" ]
    (error_rules (Graph_lint.lint_edges [ edge ~amount:Amount.zero alice bob "btc" ]));
  Alcotest.(check (list string)) "duplicate edge" [ "G004-duplicate-edge" ]
    (error_rules (Graph_lint.lint_edges [ edge alice bob "btc"; edge alice bob "btc" ]));
  (* Same endpoints on distinct chains is legitimate. *)
  Alcotest.(check (list string)) "well-formed pair" []
    (error_rules (Graph_lint.lint_edges [ edge alice bob "btc"; edge bob alice "eth" ]))

let test_lint_profiles () =
  (* Fig 7b: fatal for a single-leader protocol, fine for AC3WN. *)
  let d = disconnected () in
  Alcotest.(check bool) "disconnected fails single-leader" true
    (has "G005-disconnected" (D.errors (Graph_lint.lint ~profile:Flow.Single_leader d)));
  let witness_view = Graph_lint.lint ~profile:Flow.Witness d in
  Alcotest.(check bool) "disconnected passes witness" false (D.has_errors witness_view);
  Alcotest.(check bool) "but is still reported" true (has "G005-disconnected" witness_view);
  (* Fig 7a: cyclic for every choice of leader. *)
  let c = cyclic () in
  Alcotest.(check bool) "cyclic fails single-leader" true
    (has "G006-leader-cycle" (D.errors (Graph_lint.lint ~profile:Flow.Single_leader c)));
  Alcotest.(check bool) "cyclic passes witness" false
    (D.has_errors (Graph_lint.lint ~profile:Flow.Witness c))

let test_lint_conservation_and_capacity () =
  (* A single transfer: the source pays and never receives. *)
  let g = Ac2t.create ~edges:[ edge alice bob "btc" ] ~timestamp:1.0 in
  let ds = Graph_lint.lint g in
  Alcotest.(check bool) "net payer flagged" true (has "G007-net-payer" ds);
  Alcotest.(check int) "one delta line per participant" 2
    (List.length (D.by_rule "G009-value-delta" ds));
  (* Three contracts on one chain against a capacity of two. *)
  let carol = Keys.create "verify-test-carol" in
  let g3 =
    Ac2t.create
      ~edges:
        [
          edge alice bob "btc";
          edge ~amount:(coin 200) bob carol "btc";
          edge ~amount:(coin 300) carol alice "btc";
        ]
      ~timestamp:1.0
  in
  Alcotest.(check bool) "chain overload" true
    (has "G008-chain-overload" (Graph_lint.lint ~block_capacity:2 g3));
  Alcotest.(check bool) "capacity ok when it fits" false
    (has "G008-chain-overload" (Graph_lint.lint ~block_capacity:4 g3))

(* Regression for the D001 fix in capacity_lints: overload warnings
   come out in chain order, not hash-bucket order. *)
let test_capacity_order_deterministic () =
  let carol = Keys.create "verify-test-carol" in
  let dave = Keys.create "verify-test-dave" in
  let edges =
    List.concat_map
      (fun chain -> [ edge alice bob chain; edge ~amount:(coin 200) carol dave chain ])
      [ "zeta"; "mid"; "alpha" ]
  in
  let g = Ac2t.create ~edges ~timestamp:1.0 in
  let locations =
    List.map
      (fun d -> d.D.location)
      (D.by_rule "G008-chain-overload" (Graph_lint.lint ~block_capacity:1 g))
  in
  Alcotest.(check (list string))
    "overloaded chains reported in sorted order"
    [ "chain alpha"; "chain mid"; "chain zeta" ]
    locations

(* --- Pass 2: timelock order ----------------------------------------------- *)

let test_timelock_assign_matches_herlihy () =
  (* Two-party swap, delta 10, slack 2: Diam = 2; the leader's outgoing
     contract (depth 0) expires at 10*(4+2) = 60, the follower's (depth 1)
     at 10*(4-1+2) = 50 — exactly Herlihy's t1 > t2 staircase. *)
  match Timelock.assign ~graph:(two_party ()) ~delta:10.0 ~timelock_slack:2.0 ~start_time:0.0 with
  | Error e -> Alcotest.fail e
  | Ok assignments ->
      Alcotest.(check (list int)) "depths" [ 0; 1 ]
        (List.map (fun a -> a.Timelock.depth) assignments);
      Alcotest.(check (list (float 1e-9))) "expiries" [ 60.0; 50.0 ]
        (List.map (fun a -> a.Timelock.expiry) assignments)

let test_timelock_default_config_passes () =
  List.iter
    (fun (name, graph) ->
      let ds = V.herlihy_preflight ~graph ~delta:15.0 ~timelock_slack:2.0 ~start_time:0.0 in
      Alcotest.(check (list string)) (name ^ " has no errors") [] (error_rules ds);
      Alcotest.(check bool) (name ^ " reports its margin") true (has "T003-min-slack" ds))
    [ ("two-party", two_party ()); ("ring-4", ring 4); ("supply-less ring-3", ring 3) ]

let test_timelock_underslack_counterexample () =
  (* Slack below the propagation cost: the static pass must reject the
     assignment and exhibit a concrete redemption path that cannot finish
     before the expiry — the paper's Sec 3 violation, without simulation. *)
  List.iter
    (fun (name, graph, timelock_slack) ->
      let ds = V.herlihy_preflight ~graph ~delta:15.0 ~timelock_slack ~start_time:0.0 in
      let errs = D.errors ds in
      Alcotest.(check bool) (name ^ " rejected") true (errs <> []);
      Alcotest.(check (list string)) (name ^ ": every error is a timelock-order violation")
        [ "T002-timelock-order" ] (error_rules ds);
      List.iter
        (fun d ->
          Alcotest.(check bool) "names the Sec 3 violation" true
            (Astring.String.is_infix ~affix:"Sec 3 violation" d.D.message);
          Alcotest.(check bool) "carries a counterexample path" true
            (Astring.String.is_infix ~affix:"redeems (" d.D.message))
        errs;
      (* The generous default accepts the same graph (checked above), so
         the verdict really turns on the slack. *)
      Alcotest.(check bool) (name ^ ": slack 0 is still enough") false
        (D.has_errors (V.herlihy_preflight ~graph ~delta:15.0 ~timelock_slack:0.0 ~start_time:0.0)))
    [ ("ring-4", ring 4, -1.0); ("two-party", two_party (), -5.0) ]

let test_timelock_secret_unreachable () =
  (* The supply-chain DAG's carrier only receives: no redemption of its
     own can ever reveal the secret to it. *)
  let ds = V.herlihy_preflight ~graph:(supply_chain ()) ~delta:15.0 ~timelock_slack:2.0 ~start_time:0.0 in
  Alcotest.(check (list string)) "carrier cannot learn the secret"
    [ "T001-secret-unreachable" ] (error_rules ds)

let test_timelock_bad_delta () =
  let ds = Timelock.verify ~graph:(two_party ()) ~delta:0.0 ~timelock_slack:2.0 ~start_time:0.0 in
  Alcotest.(check bool) "delta must be positive" true (has "T004-bad-delta" (D.errors ds))

(* --- Pass 3: contract state machines --------------------------------------- *)

let test_htlc_automaton_sound () =
  let spec = Probes.htlc () in
  Alcotest.(check (list string)) "no errors" [] (error_rules (V.contract spec));
  match State_machine.explore spec with
  | Error e -> Alcotest.fail e
  | Ok auto ->
      Alcotest.(check bool) "not truncated" false (State_machine.truncated auto);
      let classes = State_machine.classes auto in
      Alcotest.(check bool) "redeem reachable" true (List.mem State_machine.Redeemed classes);
      Alcotest.(check bool) "refund reachable" true (List.mem State_machine.Refunded classes);
      Alcotest.(check bool) "no off-template states" false (List.mem State_machine.Other classes);
      (* P, RD, RF — and nothing else: the explicit Algorithm 1 automaton. *)
      Alcotest.(check int) "three states" 3 (State_machine.node_count auto);
      (* Every terminal paid out the full deposit exactly. *)
      List.iter
        (fun (n : State_machine.node) ->
          match n.State_machine.cls with
          | State_machine.Redeemed | State_machine.Refunded ->
              Alcotest.(check bool)
                ("terminal " ^ string_of_int n.State_machine.id ^ " conserves the deposit")
                true
                (Amount.equal n.State_machine.paid (coin 1000));
              Alcotest.(check (list (pair string int))) "terminal is absorbing" []
                n.State_machine.succs
          | _ -> ())
        (State_machine.nodes auto)

let test_htlc_stuck_state_detected () =
  (* Strip the probe set down to wrong-secret redemptions: the automaton
     degenerates to a single Published state with no exit, which the
     checker must flag as locked funds. *)
  let spec = Probes.htlc () in
  let crippled =
    {
      spec with
      State_machine.probes =
        List.filter
          (fun (p : State_machine.probe) ->
            Astring.String.is_prefix ~affix:"redeem/bad" p.State_machine.label)
          spec.State_machine.probes;
    }
  in
  let ds = V.contract crippled in
  Alcotest.(check (list string)) "stuck state reported" [ "S001-stuck-state" ] (error_rules ds)

let test_centralized_and_witness_sound () =
  Alcotest.(check (list string)) "ac3tw swap contract clean" []
    (error_rules (V.contract (Probes.centralized ())));
  let ds = V.contract (Probes.witness ()) in
  Alcotest.(check (list string)) "witness contract clean" [] (error_rules ds);
  match State_machine.explore (Probes.witness ()) with
  | Error e -> Alcotest.fail e
  | Ok auto ->
      Alcotest.(check bool) "refund authorization reachable" true
        (List.mem State_machine.Refunded (State_machine.classes auto))

(* --- The AC3WN preflight -------------------------------------------------- *)

let test_ac3wn_preflight_all_scenarios () =
  (* AC3WN's static obligation is well-formedness only: every built-in
     scenario — including the Fig 7 shapes — must pass. *)
  List.iter
    (fun (name, graph) ->
      Alcotest.(check (list string)) (name ^ " accepted") [] (error_rules (V.ac3wn_preflight ~graph)))
    [
      ("two-party", two_party ());
      ("ring-4", ring 4);
      ("cyclic", cyclic ());
      ("disconnected", disconnected ());
      ("supply-chain", supply_chain ());
    ]

(* --- diagnostics plumbing: dedupe, JSON, location attribution ---------- *)

let test_diagnostic_dedupe () =
  let d1 = D.error ~rule:"X001" ~location:"here" "same" in
  let d2 = D.error ~rule:"X001" ~location:"here" "different" in
  let deduped = D.dedupe [ d1; d2; d1; d1; d2 ] in
  Alcotest.(check int) "exact repeats dropped" 2 (List.length deduped);
  Alcotest.(check bool) "order and content preserved" true (deduped = [ d1; d2 ])

let test_diagnostic_json () =
  let module Json = Ac3_crypto.Codec.Json in
  let d = D.warning ~rule:"S005-truncated" ~location:"automaton" "bound hit" in
  let j = D.to_json d in
  Alcotest.(check string) "severity" "warning" (Json.to_str (Json.member "severity" j));
  Alcotest.(check string) "rule" "S005-truncated" (Json.to_str (Json.member "rule" j));
  Alcotest.(check string) "message" "bound hit" (Json.to_str (Json.member "message" j))

let test_state_machine_max_nodes () =
  (* A user-lowered bound must still surface as S005 — the verdict only
     covers the explored prefix. *)
  let ds = V.contract (Probes.htlc ~max_nodes:2 ()) in
  Alcotest.(check bool) "S005 at user bound" true (has "S005-truncated" ds);
  let default = V.contract (Probes.htlc ()) in
  Alcotest.(check bool) "no S005 at default bound" false (has "S005-truncated" default)

let test_contract_name_attribution () =
  let ds = V.contract ~name:"htlc" (Probes.htlc ()) in
  Alcotest.(check bool) "diagnostics present" true (ds <> []);
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "location %S names the contract" d.D.location)
        true
        (Astring.String.is_prefix ~affix:"htlc: " d.D.location))
    ds

let () =
  Alcotest.run "verify"
    [
      ( "graph-lint",
        [
          Alcotest.test_case "structural rules (G001-G004)" `Quick test_lint_edges_structural;
          Alcotest.test_case "profiles split on Fig 7 (G005/G006)" `Quick test_lint_profiles;
          Alcotest.test_case "conservation and capacity (G007-G009)" `Quick
            test_lint_conservation_and_capacity;
          Alcotest.test_case "G008 order is chain-sorted" `Quick test_capacity_order_deterministic;
        ] );
      ( "timelock",
        [
          Alcotest.test_case "assignment matches Herlihy" `Quick test_timelock_assign_matches_herlihy;
          Alcotest.test_case "default slack passes" `Quick test_timelock_default_config_passes;
          Alcotest.test_case "under-slack yields Sec 3 counterexample" `Quick
            test_timelock_underslack_counterexample;
          Alcotest.test_case "sink participant cannot learn secret" `Quick
            test_timelock_secret_unreachable;
          Alcotest.test_case "non-positive delta rejected" `Quick test_timelock_bad_delta;
        ] );
      ( "state-machine",
        [
          Alcotest.test_case "HTLC automaton sound" `Quick test_htlc_automaton_sound;
          Alcotest.test_case "stuck state detected" `Quick test_htlc_stuck_state_detected;
          Alcotest.test_case "AC3TW and witness contracts sound" `Quick
            test_centralized_and_witness_sound;
        ] );
      ( "preflight",
        [
          Alcotest.test_case "ac3wn accepts all scenarios" `Quick test_ac3wn_preflight_all_scenarios;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "dedupe drops exact repeats" `Quick test_diagnostic_dedupe;
          Alcotest.test_case "stable JSON fields" `Quick test_diagnostic_json;
          Alcotest.test_case "user node bound yields S005" `Quick test_state_machine_max_nodes;
          Alcotest.test_case "locations name the contract" `Quick test_contract_name_attribution;
        ] );
    ]
