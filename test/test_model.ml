(* Model-checker tests: the M-rules on known-good and known-bad
   (protocol, graph) pairs, agreement with the committed chaos corpus,
   and the static-counterexample-to-dynamic-violation bridge.

   The headline properties from the paper: Herlihy's protocol is not
   fault-tolerant (one withholding party yields a mixed settlement,
   M001, where the victim's executed history is conforming, M003),
   while AC3WN's witness decision makes the same universes atomic under
   the same fault budget. *)

module Checker = Ac3_model.Checker
module Semantics = Ac3_model.Semantics
module Explore = Ac3_model.Explore
module Global_state = Ac3_model.Global_state
module Rules = Ac3_model.Rules
module Flow = Ac3_flow.Flow
module Ref_model = Reference.Model
module Diagnostic = Ac3_verify.Diagnostic
module Scenarios = Ac3_core.Scenarios
module Plan = Ac3_chaos.Plan
module Runner = Ac3_chaos.Runner
module Repro = Ac3_chaos.Repro
module Model_repro = Ac3_chaos.Model_repro

let error_rules report =
  List.map (fun d -> d.Diagnostic.rule) (Diagnostic.errors report.Checker.diagnostics)

let has_error rule report = List.mem rule (error_rules report)

let config ?(crash_budget = 1) () = { Checker.default_config with crash_budget }

let two_party () =
  Scenarios.two_party_graph ~chain1:"c0" ~chain2:"c1"
    (Scenarios.identities ~ns:"model-test" 2)
    ~timestamp:1.0

let ring n =
  let chains = List.init n (Printf.sprintf "c%d") in
  Scenarios.ring_graph ~chains (Scenarios.identities ~ns:"model-test" n) ~timestamp:1.0

let supply_chain () =
  Scenarios.supply_chain_graph ~chains:[ "c0"; "c1"; "c2" ]
    (Scenarios.identities ~ns:"model-test" 4)
    ~timestamp:1.0

(* --- Herlihy under one crash: the Sec 3 violation ---------------------- *)

let test_herlihy_two_party_crash () =
  let r = Checker.check ~config:(config ()) ~protocol:Checker.Herlihy ~graph:(two_party ()) in
  Alcotest.(check bool) "M001 found" true (has_error "M001-mixed-settlement" r);
  Alcotest.(check bool) "M003 found" true (has_error "M003-deviation-unsafe" r);
  Alcotest.(check bool) "not truncated" false r.Checker.stats.Checker.truncated;
  let v = List.hd r.Checker.violations in
  Alcotest.(check bool) "schedule non-empty" true (v.Ac3_model.Rules.schedule <> []);
  Alcotest.(check bool) "schedule contains a crash" true
    (List.exists
       (function Semantics.Crash _ -> true | _ -> false)
       v.Ac3_model.Rules.schedule)

(* --- Herlihy fault-free: clean --------------------------------------- *)

let test_herlihy_fault_free_clean () =
  List.iter
    (fun graph ->
      let r =
        Checker.check ~config:(config ~crash_budget:0 ()) ~protocol:Checker.Herlihy ~graph
      in
      Alcotest.(check (list string)) "no errors" [] (error_rules r))
    [ two_party (); ring 3 ]

(* --- AC3WN: atomic under the same budget ------------------------------ *)

let test_ac3wn_clean_under_crash () =
  List.iter
    (fun (name, graph) ->
      let r = Checker.check ~config:(config ()) ~protocol:Checker.Ac3wn ~graph in
      Alcotest.(check (list string)) (name ^ " has no errors") [] (error_rules r))
    [
      ("two-party", two_party ());
      ("ring4", ring 4);
      ("supply-chain", supply_chain ());
    ]

(* --- Fault-free Herlihy on the supply chain: the T001 graph ----------- *)

(* The supply-chain graph pays the carrier on a chain whose timelock
   expires before the carrier can learn the secret; the T-rules flag it
   statically (T001) and the model checker must reach the same verdict
   by pure exploration: a mixed settlement with no faults at all. *)
let test_herlihy_supply_chain_violates_fault_free () =
  let r =
    Checker.check
      ~config:(config ~crash_budget:0 ())
      ~protocol:Checker.Herlihy ~graph:(supply_chain ())
  in
  Alcotest.(check bool) "M001 found with zero faults" true (has_error "M001-mixed-settlement" r)

(* --- Nolan: two-party only -------------------------------------------- *)

let test_nolan_shape_gate () =
  let r = Checker.check ~config:(config ()) ~protocol:Checker.Nolan ~graph:(ring 3) in
  Alcotest.(check bool) "ring rejected" true (has_error "T000-not-executable" r);
  let r2 = Checker.check ~config:(config ()) ~protocol:Checker.Nolan ~graph:(two_party ()) in
  Alcotest.(check bool) "two-party modeled" true (r2.Checker.model <> None);
  Alcotest.(check bool) "M001 found" true (has_error "M001-mixed-settlement" r2)

(* --- Determinism and POR ---------------------------------------------- *)

let test_deterministic_and_por () =
  let run () = Checker.check ~config:(config ()) ~protocol:Checker.Herlihy ~graph:(ring 4) in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "same stats" true (r1.Checker.stats = r2.Checker.stats);
  Alcotest.(check (list string)) "same rules" (error_rules r1) (error_rules r2);
  (* Herlihy's rounds serialize almost everything; the reduction earns
     its keep on AC3WN, whose deploys and redeems are parallel. *)
  let rw = Checker.check ~config:(config ()) ~protocol:Checker.Ac3wn ~graph:(ring 4) in
  Alcotest.(check bool) "POR pruned something on ac3wn" true
    (rw.Checker.stats.Checker.por_skipped > 0)

let test_truncation_reported () =
  let config = { (config ()) with Checker.max_nodes = 10 } in
  let r = Checker.check ~config ~protocol:Checker.Herlihy ~graph:(ring 4) in
  Alcotest.(check bool) "truncated" true r.Checker.stats.Checker.truncated;
  Alcotest.(check bool) "M005 warning" true
    (List.exists (fun d -> d.Diagnostic.rule = "M005-truncated") r.Checker.diagnostics)

(* --- Agreement with the committed chaos corpus ------------------------- *)

(* Each committed reproducer states dynamic verdicts per protocol; the
   checker, run on the same graph with a budget matching the plan, must
   predict them: expected deposit_lost implies an M001 finding, expected
   pass implies a clean report. *)
let corpus_dir () =
  if Sys.file_exists "chaos_corpus" then "chaos_corpus" else Filename.concat "test" "chaos_corpus"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let checker_protocol = function
  | Runner.P_nolan -> Checker.Nolan
  | Runner.P_herlihy -> Checker.Herlihy
  | Runner.P_ac3wn -> Checker.Ac3wn

let test_corpus_predicted () =
  let files = Sys.readdir (corpus_dir ()) in
  Array.sort compare files;
  let checked = ref 0 in
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".json" then begin
        let repro = Repro.of_string (read_file (Filename.concat (corpus_dir ()) file)) in
        let crashes =
          List.exists (function Plan.Crash _ -> true | _ -> false) repro.Repro.plan
        in
        let ids =
          Scenarios.identities
            ~ns:(Printf.sprintf "model-corpus-%d" repro.Repro.spec.Plan.seed)
            repro.Repro.spec.Plan.parties
        in
        let graph = Runner.build_graph ~spec:repro.Repro.spec ~ids ~timestamp:1.0 in
        List.iter
          (fun (e : Repro.expectation) ->
            (* Only crash faults are in the model's move alphabet; a
               partition/delay-driven verdict is out of scope here. *)
            let in_scope = repro.Repro.plan = [] || crashes in
            if in_scope then begin
              let budget = if crashes then 1 else 0 in
              let r =
                Checker.check
                  ~config:(config ~crash_budget:budget ())
                  ~protocol:(checker_protocol e.Repro.protocol) ~graph
              in
              incr checked;
              if e.Repro.deposit_lost then
                Alcotest.(check bool)
                  (Printf.sprintf "%s: %s deposit loss predicted (M001)" file
                     (Runner.protocol_name e.Repro.protocol))
                  true (has_error "M001-mixed-settlement" r)
              else if e.Repro.pass && e.Repro.committed then
                Alcotest.(check (list string))
                  (Printf.sprintf "%s: %s clean run predicted" file
                     (Runner.protocol_name e.Repro.protocol))
                  [] (error_rules r)
            end)
          repro.Repro.expect
      end)
    files;
  Alcotest.(check bool) "checked at least three expectations" true (!checked >= 3)

(* --- The bridge: counterexamples replay on the simulator --------------- *)

let test_counterexample_replays () =
  let spec =
    { Plan.seed = 2026; shape = Plan.Two_party; parties = 2; nchains = 2; extra_edges = 0; load = 1 }
  in
  let ids = Scenarios.identities ~ns:"chaos2026-herlihy" ~fresh:true 2 in
  let graph = Runner.build_graph ~spec ~ids ~timestamp:1.0 in
  let r = Checker.check ~config:(config ()) ~protocol:Checker.Herlihy ~graph in
  Alcotest.(check bool) "static violation found" true (r.Checker.violations <> []);
  let v = List.hd r.Checker.violations in
  let outcome =
    Model_repro.concretize ~spec ~protocol:Checker.Herlihy
      ~schedule:v.Ac3_model.Rules.schedule ()
  in
  Alcotest.(check bool) "dynamically confirmed" true outcome.Model_repro.confirmed;
  Alcotest.(check bool) "reproducer replays" true
    (Repro.replay_ok (Repro.replay outcome.Model_repro.repro))

(* Regression for the D001 fix in Explore.iter_succs: edges are visited
   in ascending source-node id, not hash-bucket order, so downstream
   diagnostics (M004) are stable. *)
let test_iter_succs_ascending () =
  match
    Semantics.make ~protocol:Semantics.Ac3wn ~graph:(two_party ()) ~delta:15.0 ~timelock_slack:2.0
      ~start_time:0.0 ~crash_budget:1
  with
  | Error e -> Alcotest.fail e
  | Ok model ->
      let t = Explore.run model in
      let last = ref (-1) in
      let edges = ref 0 in
      Explore.iter_succs t (fun id _mv _tgt ->
          incr edges;
          if id < !last then
            Alcotest.failf "source id %d visited after %d: not ascending" id !last;
          last := id);
      Alcotest.(check bool) "visited edges" true (!edges > 0)

(* --- Differential: the dense store against the reference explorer ----- *)

(* A (protocol, graph, crash budget) drawn over the two-party swap, rings
   of 2-7 parties and the supply chain. The node bound keeps the largest
   rings cheap and exercises truncation on both sides. *)
let gen_case =
  QCheck.Gen.(
    triple
      (oneofl [ Semantics.Herlihy; Semantics.Ac3wn ])
      (oneof [ return `Two_party; map (fun n -> `Ring n) (int_range 2 7); return `Supply_chain ])
      (int_range 0 2))

let print_case (protocol, shape, budget) =
  Printf.sprintf "%s %s crashes=%d"
    (match protocol with Semantics.Herlihy -> "herlihy" | Semantics.Ac3wn -> "ac3wn")
    (match shape with
    | `Two_party -> "two-party"
    | `Ring n -> Printf.sprintf "ring-%d" n
    | `Supply_chain -> "supply-chain")
    budget

let graph_of = function `Two_party -> two_party () | `Ring n -> ring n | `Supply_chain -> supply_chain ()

let model_of ((protocol, shape, crash_budget) as case) =
  match
    Semantics.make ~protocol ~graph:(graph_of shape) ~delta:15.0 ~timelock_slack:2.0
      ~start_time:0.0 ~crash_budget
  with
  | Ok m -> m
  | Error e -> Alcotest.failf "%s: %s" (print_case case) e

let max_nodes = 3_000

(* The reference result re-indexed as an [Explore.t], so [Rules.check]
   runs over it unchanged. *)
let explore_of_ref (r : Ref_model.t) =
  let node id =
    let n = Ref_model.node r id in
    { Explore.id = n.Ref_model.id; state = n.state; pred = n.pred; depth = n.depth }
  in
  {
    Explore.model = r.Ref_model.model;
    nodes = Array.init r.n_nodes node;
    succs = Array.init r.n_nodes (Hashtbl.find r.succs);
    n_nodes = r.n_nodes;
    n_transitions = r.n_transitions;
    por_skipped = r.por_skipped;
    peak_frontier = r.peak_frontier;
    truncated = r.truncated;
  }

let rule_outputs ~flow t =
  let diags, violations = Rules.check ~flow t in
  ( diags,
    List.map
      (fun v ->
        (v.Rules.rule, v.Rules.node, Global_state.key v.Rules.state, v.Rules.schedule))
      violations )

let qcheck_explore_matches_reference =
  QCheck.Test.make ~name:"dense explorer == reference explorer" ~count:30
    (QCheck.make ~print:print_case gen_case)
    (fun ((protocol, shape, budget) as case) ->
      let m = model_of case in
      let t = Explore.run ~max_nodes m in
      let r = Ref_model.run ~max_nodes m in
      if
        (t.n_nodes, t.n_transitions, t.por_skipped, t.peak_frontier, t.truncated)
        <> (r.n_nodes, r.n_transitions, r.por_skipped, r.peak_frontier, r.truncated)
      then Alcotest.fail "stats differ";
      let settles = Explore.can_settle_memo t and ref_settles = Ref_model.can_settle_memo r in
      for id = 0 to t.n_nodes - 1 do
        let n = Explore.node t id and rn = Ref_model.node r id in
        if Global_state.key n.state <> Global_state.key rn.state then
          Alcotest.failf "node %d: state differs" id;
        if n.id <> id || n.pred <> rn.pred || n.depth <> rn.depth then
          Alcotest.failf "node %d: BFS tree entry differs" id;
        if t.succs.(id) <> Hashtbl.find r.succs id then
          Alcotest.failf "node %d: successor list differs" id;
        if settles n.state <> ref_settles rn.state then
          Alcotest.failf "node %d: settlement reachability differs" id
      done;
      let profile = match protocol with Semantics.Herlihy -> Flow.Single_leader | Ac3wn -> Flow.Witness in
      let flow = Flow.analyze ~fault_budget:budget ~profile (graph_of shape) in
      rule_outputs ~flow t = rule_outputs ~flow (explore_of_ref r))

(* --- Key injectivity and apply's input immutability ------------------ *)

let gen_state ~edges ~parties =
  QCheck.Gen.(
    let counter = oneof [ int_range 0 12; int_range 10 100_000 ] in
    map
      (fun ((e, k, a), (time, witness, crashes_left)) ->
        {
          Global_state.edges = Array.of_list e;
          knows = Array.of_list k;
          alive = Array.of_list a;
          time;
          witness;
          crashes_left;
        })
      (pair
         (triple
            (list_repeat edges
               (oneofl Global_state.[ Unpublished; Published; Redeemed; Refunded ]))
            (list_repeat parties bool) (list_repeat parties bool))
         (triple counter (oneofl Global_state.[ W_none; W_undecided; W_redeem; W_refund ]) counter)))

(* Pairs of one shape: half independent, half a copy with at most one
   component redrawn, so equal and near-equal pairs both occur. *)
let gen_state_pair =
  QCheck.Gen.(
    pair (int_range 1 6) (int_range 1 6) >>= fun (edges, parties) ->
    let state = gen_state ~edges ~parties in
    state >>= fun a ->
    let copy (s : Global_state.t) =
      { s with edges = Array.copy s.edges; knows = Array.copy s.knows; alive = Array.copy s.alive }
    in
    state >>= fun c ->
    oneof
      [
        return (a, c);
        return (a, copy a);
        return (a, { (copy a) with edges = c.edges });
        return (a, { (copy a) with knows = c.knows });
        return (a, { (copy a) with alive = c.alive });
        return (a, { a with time = c.time });
        return (a, { a with witness = c.witness });
        return (a, { a with crashes_left = c.crashes_left });
        return (a, { a with time = c.crashes_left; crashes_left = c.time });
      ])

let print_state s = Fmt.str "%a crashes_left=%d" Global_state.pp s s.Global_state.crashes_left

let qcheck_key_injective =
  QCheck.Test.make ~name:"Global_state.key is injective on one shape" ~count:500
    (QCheck.make ~print:QCheck.Print.(pair print_state print_state) gen_state_pair)
    (fun (a, b) -> Global_state.key a = Global_state.key b = (a = b))

(* Random walks from the initial state: at each step every enabled move
   is applied to the current state, and no state met so far on the walk
   may change its key. Successors share arrays with their sources, so an
   in-place write anywhere on the walk shows up here. *)
let qcheck_apply_immutable =
  QCheck.Test.make ~name:"Semantics.apply never mutates its input" ~count:30
    (QCheck.make
       ~print:QCheck.Print.(pair print_case int)
       QCheck.Gen.(pair gen_case (int_bound 1_000_000)))
    (fun (case, seed) ->
      let m = model_of case in
      let rng = Random.State.make [| seed |] in
      let rec walk trail s =
        let trail = (s, Global_state.key s) :: trail in
        let succs = List.map (Semantics.apply m s) (Semantics.enabled m s) in
        List.iter
          (fun (s, k) ->
            if Global_state.key s <> k then
              Alcotest.failf "state %s changed under apply" (print_state s))
          trail;
        if succs <> [] then walk trail (List.nth succs (Random.State.int rng (List.length succs)))
      in
      for _ = 1 to 10 do
        walk [] (Semantics.init m)
      done;
      true)

let () =
  Alcotest.run "model"
    [
      ( "rules",
        [
          Alcotest.test_case "herlihy two-party: crash yields M001+M003" `Quick
            test_herlihy_two_party_crash;
          Alcotest.test_case "herlihy fault-free: clean" `Quick test_herlihy_fault_free_clean;
          Alcotest.test_case "ac3wn: clean under one crash" `Quick test_ac3wn_clean_under_crash;
          Alcotest.test_case "herlihy supply chain: fault-free M001" `Quick
            test_herlihy_supply_chain_violates_fault_free;
          Alcotest.test_case "nolan: shape gate" `Quick test_nolan_shape_gate;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "deterministic, POR active" `Quick test_deterministic_and_por;
          Alcotest.test_case "truncation reported" `Quick test_truncation_reported;
          Alcotest.test_case "iter_succs ascending" `Quick test_iter_succs_ascending;
          QCheck_alcotest.to_alcotest qcheck_explore_matches_reference;
          QCheck_alcotest.to_alcotest qcheck_key_injective;
          QCheck_alcotest.to_alcotest qcheck_apply_immutable;
        ] );
      ( "corpus",
        [ Alcotest.test_case "corpus verdicts predicted" `Quick test_corpus_predicted ] );
      ( "replay",
        [
          Alcotest.test_case "counterexample concretizes and replays" `Slow
            test_counterexample_replays;
        ] );
    ]
