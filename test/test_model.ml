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
module Protocol = Ac3_flow.Protocol
module Ac2t = Ac3_contract.Ac2t
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

(* --- Signature budgets across many checks ------------------------------ *)

(* Every AC3WN check probes the witness contract, which multisigns with
   two identities made from fixed labels. 200 checks in one process, on
   one domain and on two, must all come back clean: when identities of
   one label shared a signature counter, the 65th check raised
   [Mss.Key_exhausted] (a height-6 key signs 64 times). *)
let test_many_ac3wn_checks () =
  let graph = ring 3 in
  List.iter
    (fun jobs ->
      let reports =
        Ac3_par.Pool.map ~jobs
          (fun _ -> Checker.check ~config:(config ()) ~protocol:Checker.Ac3wn ~graph)
          (List.init 200 Fun.id)
      in
      Alcotest.(check int) (Printf.sprintf "jobs %d: every check ran" jobs) 200 (List.length reports);
      List.iteri
        (fun i r ->
          Alcotest.(check (list string)) (Printf.sprintf "jobs %d: check %d clean" jobs i) [] (error_rules r))
        reports)
    [ 1; 2 ]

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
                  ~protocol:(Runner.shared e.Repro.protocol) ~graph
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
  (* The runner's own parties, so the checked graph and the concretized
     run are the same swap. *)
  let graph = Runner.build_graph ~spec ~ids:(Runner.plan_identities spec) ~timestamp:1.0 in
  let r = Checker.check ~config:(config ()) ~protocol:Checker.Herlihy ~graph in
  Alcotest.(check bool) "static violation found" true (r.Checker.violations <> []);
  let v = List.hd r.Checker.violations in
  let crashes =
    List.filter_map (function Semantics.Crash p -> Some p | _ -> None) v.Ac3_model.Rules.schedule
  in
  let outcome = Model_repro.concretize ~spec ~protocol:Checker.Herlihy ~crashes () in
  Alcotest.(check bool) "dynamically confirmed" true outcome.Model_repro.confirmed;
  Alcotest.(check bool) "reproducer replays" true
    (Repro.replay_ok (Repro.replay outcome.Model_repro.repro))

(* --- Differential: the driver's trace projects onto the checker ------- *)

(* Fault-free runs on seeded chord graphs: every edge event the driver
   records, up to its first refund, must be a move [Semantics.scan]
   offers at that point of the replay, with [Expire] taken only where
   the checker enables it. [Deploy i] and [Redeem i] project onto the
   moves of the same name, and AC3WN's confirmed commit onto
   [W_commit]. The driver and the checker call the same guards, so a
   rule changed on one side shows up on the other. With [~refunds],
   the projection also maps [Refund i] and a confirmed abort
   ([W_abort]) instead of stopping at the first refund: AC3WN's refunds
   follow the witness's decision, not a race against timelocks. *)
let driver_moves ?(refunds = false) trace =
  let rec go = function
    | [] -> []
    | (r : _ Ac3_sim.Trace.record) :: rest -> (
        match r.Ac3_sim.Trace.event with
        | Protocol.Refund i -> if refunds then Semantics.Refund i :: go rest else []
        | Protocol.Deploy i -> Semantics.Deploy i :: go rest
        | Protocol.Redeem i -> Semantics.Redeem i :: go rest
        | Protocol.Decision_confirmed Protocol.Commit -> Semantics.W_commit :: go rest
        | Protocol.Decision_confirmed Protocol.Abort -> Semantics.W_abort :: go rest
        | _ -> go rest)
  in
  go (Ac3_sim.Trace.records trace)

(* The codes [Semantics.scan] writes for state [s], in order. *)
let scan_codes m (s : Global_state.t) =
  let codes = Array.make (Semantics.max_moves m) 0 in
  let n = Semantics.scan m (Bytes.unsafe_of_string (s :> string)) 0 codes in
  Array.to_list (Array.sub codes 0 n)

(* Replays projected moves on the fault-free model of [graph]. *)
let replay_on_checker ~name ~profile graph moves =
  let m =
    match
      Semantics.make ~profile ~graph ~delta:15.0 ~timelock_slack:2.0
        ~crash_budget:0
    with
    | Ok m -> m
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  let rec take s mv =
    let enabled = scan_codes m s in
    if List.mem (Semantics.code mv) enabled then Semantics.apply m s (Semantics.code mv)
    else if List.mem (Semantics.code Semantics.Expire) enabled then
      take (Semantics.apply m s (Semantics.code Semantics.Expire)) mv
    else
      Alcotest.failf "%s: the driver took %a, which the checker does not enable in %a" name
        (Semantics.pp_move m) mv Global_state.pp s
  in
  Alcotest.(check bool) (name ^ ": trace has moves") true (moves <> []);
  ignore (List.fold_left take (Semantics.init m) moves)

let project_driver_trace ~protocol (seed, parties, extra_edges) =
  let spec = { Plan.seed; shape = Plan.Random; parties; nchains = 3; extra_edges; load = 1 } in
  let name =
    Printf.sprintf "%s, seed %d, %d parties, %d extra edges" (Runner.protocol_name protocol) seed
      parties extra_edges
  in
  let r = Runner.run_one ~spec ~plan:[] ~protocol () in
  (* The graph's edge order depends on the spec alone, so any
     identities index the same edges as the run's. *)
  let ids = Scenarios.identities ~ns:"model-test" parties in
  let graph = Runner.build_graph ~spec ~ids ~timestamp:1.0 in
  let moves = driver_moves (Option.get r.Runner.trace) in
  replay_on_checker ~name ~profile:(Protocol.family (Runner.shared protocol)) graph moves;
  (graph, moves)

let test_driver_trace_projects () =
  List.iter
    (fun case -> ignore (project_driver_trace ~protocol:Runner.P_herlihy case))
    [ (1, 4, 2); (1, 6, 1); (2, 4, 2); (4, 6, 1); (7, 4, 3); (7, 5, 1); (3, 5, 0); (10, 6, 2) ];
  (* AC3WN commits fault-free, so each of its projections decides and
     redeems every edge. A chain carrying two edges is where events
     named by chain would drop one of them. *)
  let shared_chain = ref false in
  List.iter
    (fun case ->
      let graph, moves = project_driver_trace ~protocol:Runner.P_ac3wn case in
      let chains = List.map (fun (e : Ac2t.edge) -> e.Ac2t.chain) (Ac2t.edges graph) in
      if List.length (List.sort_uniq String.compare chains) < List.length chains then
        shared_chain := true;
      Alcotest.(check int) "one commit" 1
        (List.length (List.filter (( = ) Semantics.W_commit) moves));
      Alcotest.(check int) "a redeem per edge" (List.length chains)
        (List.length (List.filter (function Semantics.Redeem _ -> true | _ -> false) moves)))
    [ (1, 4, 2); (2, 4, 2); (3, 5, 0); (7, 5, 1) ];
  Alcotest.(check bool) "some chain carries two edges" true !shared_chain

(* AC3WN's abort path, run the way the load engine runs an abandoned
   swap: the refund path is requested one block interval after launch.
   The witness decides [Abort] once, and every contract deployed before
   the decision is refunded, each step a move the checker enables. *)
let test_ac3wn_abort_projects () =
  let block_interval = Scenarios.fast_chain.Ac3_chain.Params.block_interval in
  List.iter
    (fun (name, seed, n, build) ->
      let chains = List.init n (Printf.sprintf "c%d") in
      let u, participants =
        Scenarios.make_universe ~seed ~chain:Scenarios.fast_chain ~chains
          (Scenarios.identities ~ns:("model-abort-" ^ name) n)
          ()
      in
      Ac3_core.Universe.run_until u 50.0;
      let ids = List.map Ac3_core.Participant.identity participants in
      let graph = build ~chains ids ~timestamp:(Ac3_core.Universe.now u) in
      let r =
        match
          Ac3_core.Ac3wn.execute u ~timeout:5000.0 ~graph ~participants ~abort_after:block_interval ()
        with
        | Ok r -> r
        | Error e -> Alcotest.failf "%s: %s" name e
      in
      let moves = driver_moves ~refunds:true r.Ac3_core.Ac3wn.trace in
      replay_on_checker ~name ~profile:Flow.Witness graph moves;
      let edges_with f = List.sort compare (List.filter_map f moves) in
      let deployed = edges_with (function Semantics.Deploy i -> Some i | _ -> None) in
      Alcotest.(check bool) (name ^ ": some contract deployed before the abort") true
        (deployed <> []);
      Alcotest.(check int) (name ^ ": one abort") 1
        (List.length (List.filter (( = ) Semantics.W_abort) moves));
      Alcotest.(check (list int)) (name ^ ": a refund per deployed edge") deployed
        (edges_with (function Semantics.Refund i -> Some i | _ -> None));
      Alcotest.(check bool) (name ^ ": not committed") false r.Ac3_core.Ac3wn.committed)
    [
      ("two-party", 1, 2, fun ~chains ids ~timestamp ->
          Scenarios.two_party_graph ~chain1:(List.nth chains 0) ~chain2:(List.nth chains 1) ids ~timestamp);
      ("ring-3", 2, 3, Scenarios.ring_graph);
      ("ring-4", 3, 4, Scenarios.ring_graph);
    ]

(* Regression for the D001 fix in Explore.iter_succs: edges are visited
   in ascending source-node id, not hash-bucket order, so downstream
   diagnostics (M004) are stable. *)
let test_iter_succs_ascending () =
  match
    Semantics.make ~profile:Flow.Witness ~graph:(two_party ()) ~delta:15.0 ~timelock_slack:2.0
      ~crash_budget:1
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

(* A (protocol family, graph, crash budget) drawn over the two-party
   swap, rings of 2-7 parties and the supply chain. The node bound keeps
   the largest rings cheap and exercises truncation on both sides. *)
let gen_case =
  QCheck.Gen.(
    triple
      (oneofl [ Flow.Single_leader; Flow.Witness ])
      (oneof [ return `Two_party; map (fun n -> `Ring n) (int_range 2 7); return `Supply_chain ])
      (int_range 0 2))

let print_case (profile, shape, budget) =
  Printf.sprintf "%s %s crashes=%d"
    (match profile with Flow.Single_leader -> "single-leader" | Flow.Witness -> "witness")
    (match shape with
    | `Two_party -> "two-party"
    | `Ring n -> Printf.sprintf "ring-%d" n
    | `Supply_chain -> "supply-chain")
    budget

let graph_of = function `Two_party -> two_party () | `Ring n -> ring n | `Supply_chain -> supply_chain ()

let model_of ((profile, shape, crash_budget) as case) =
  match
    Semantics.make ~profile ~graph:(graph_of shape) ~delta:15.0 ~timelock_slack:2.0
      ~crash_budget
  with
  | Ok m -> m
  | Error e -> Alcotest.failf "%s: %s" (print_case case) e

let max_nodes = 3_000

(* The reference result packed into an [Explore.t] through
   [Explore.of_tree], so [Rules.check] runs over it unchanged. *)
let explore_of_ref (r : Ref_model.t) =
  Explore.of_tree r.model
    ~nodes:
      (Array.init r.n_nodes (fun id ->
           let n = Ref_model.node r id in
           { Explore.id; state = n.state; pred = n.pred; depth = n.depth }))
    ~succs:(Array.init r.n_nodes (Hashtbl.find r.succs))
    ~por_skipped:r.por_skipped ~peak_frontier:r.peak_frontier ~truncated:r.truncated

let rule_outputs ~flow t =
  let diags, violations = Rules.check ~flow t in
  ( diags,
    List.map
      (fun v ->
        (v.Rules.rule, v.Rules.node, v.Rules.state, v.Rules.schedule))
      violations )

(* Ids, states, BFS tree, schedules, per-node successor order, stats,
   [can_settle_memo] answers and [Rules.check] output all equal the
   reference explorer's. *)
let matches_reference ~max_nodes ((profile, shape, budget) as case) =
  let m = model_of case in
  let t = Explore.run ~max_nodes m in
  let r = Ref_model.run ~max_nodes m in
  if
    (t.n_nodes, t.n_transitions, t.por_skipped, t.peak_frontier, t.truncated)
    <> (r.n_nodes, r.n_transitions, r.por_skipped, r.peak_frontier, r.truncated)
  then Alcotest.fail "stats differ";
  let settles = Explore.can_settle_memo t and ref_settles = Ref_model.can_settle_memo r in
  let succs = Array.make t.n_nodes [] in
  Explore.iter_succs t (fun id mv tgt -> succs.(id) <- (mv, tgt) :: succs.(id));
  for id = 0 to t.n_nodes - 1 do
    let n = Explore.node t id and rn = Ref_model.node r id in
    if n.state <> rn.state || Explore.state t id <> rn.state then
      Alcotest.failf "node %d: state differs" id;
    if n.id <> id || n.pred <> rn.pred || n.depth <> rn.depth then
      Alcotest.failf "node %d: BFS tree entry differs" id;
    if Explore.schedule t id <> Ref_model.schedule r id then
      Alcotest.failf "node %d: schedule differs" id;
    if List.rev succs.(id) <> Hashtbl.find r.succs id then
      Alcotest.failf "node %d: successor list differs" id;
    if settles (Explore.state_bytes t id) (Explore.state_pos t id) <> ref_settles rn.state then
      Alcotest.failf "node %d: settlement reachability differs" id
  done;
  let flow = Flow.analyze ~fault_budget:budget ~profile (graph_of shape) in
  (t, rule_outputs ~flow t = rule_outputs ~flow (explore_of_ref r))

let qcheck_explore_matches_reference =
  QCheck.Test.make ~name:"dense explorer == reference explorer" ~count:30
    (QCheck.make ~print:print_case gen_case)
    (fun case -> snd (matches_reference ~max_nodes case))

(* The intern table starts at 2048 slots and doubles whenever it is half
   full, so exploring past 8192 states grows it at least four times
   (at 1024, 2048, 4096 and 8192 states); every re-placed slot must
   still find its state. The store keeps 2048 records a chunk, so the
   20 000 states span ten chunks and the successors more. The ring is
   larger than the bound, so the run is also truncated. *)
let growth_case = (Flow.Witness, `Ring 8, 1)

let test_table_growth_matches_reference () =
  let t, rules_equal = matches_reference ~max_nodes:20_000 growth_case in
  Alcotest.(check int) "explored up to the bound" 20_000 t.n_nodes;
  Alcotest.(check bool) "truncated" true t.truncated;
  Alcotest.(check bool) "Rules.check output equal" true rules_equal

(* Everything the result keeps beyond its model, per explored state. A
   ring-8 state is 45 bytes; its 16-byte BFS tree entry and about two
   8-byte successor records bring the chunked store to 78 bytes. A store
   of one boxed string per state in doubling pointer arrays measures 173
   and fails the bound. *)
let test_bytes_per_state () =
  let t = Explore.run ~max_nodes:20_000 (model_of growth_case) in
  let words = Obj.reachable_words (Obj.repr t) - Obj.reachable_words (Obj.repr t.model) in
  let bytes = words * (Sys.word_size / 8) / t.n_nodes in
  if bytes > 120 then Alcotest.failf "%d bytes per explored state, above 120" bytes

(* Two distinct states of one width with the same [String.hash] share
   the 30 hash bits of an intern slot, so only the byte compare tells
   them apart. The pair is searched for among states that differ only in
   [crashes_left], the last 8-byte word of a 48-byte ring-9 state: a
   compare that skipped the last word would give both one id. *)
let test_intern_hash_collision () =
  let state crashes_left =
    Global_state.make
      ~edges:(Array.make 9 Ac3_contract.Swap_template.Published)
      ~knows:(Array.make 9 false) ~alive:(Array.make 9 true) ~time:0
      ~decision:Protocol.Undecided ~crashes_left
  in
  let seen = Hashtbl.create 65_536 in
  let rec search c =
    if c > 1 lsl 22 then Alcotest.fail "no String.hash collision found"
    else
      let h = String.hash (state c :> string) in
      match Hashtbl.find_opt seen h with
      | Some c' -> (state c', state c)
      | None ->
          Hashtbl.replace seen h c;
          search (c + 1)
  in
  let a, b = search 0 in
  Alcotest.(check int) "48-byte states" 48 (String.length (a :> string));
  Alcotest.(check bool) "distinct" false (a = b);
  Alcotest.(check int) "same hash" (String.hash (a :> string)) (String.hash (b :> string));
  Alcotest.(check (array int)) "distinct ids, each found again" [| 0; 1; 0; 1 |]
    (Explore.intern_ids [| a; b; a; b |])

(* Ids live in the low 32 bits of an intern slot. *)
let test_max_nodes_limit () =
  let m = model_of (Flow.Witness, `Two_party, 0) in
  Alcotest.check_raises "above the limit"
    (Invalid_argument
       (Printf.sprintf "Explore.run: max_nodes must be at most %d (got %d)"
          Explore.max_nodes_limit (Explore.max_nodes_limit + 1)))
    (fun () -> ignore (Explore.run ~max_nodes:(Explore.max_nodes_limit + 1) m));
  Alcotest.(check bool) "at the limit" false
    (Explore.run ~max_nodes:Explore.max_nodes_limit m).truncated

(* --- The move kernel against the reference enabledness ----------------- *)

(* Random walks from the initial state over every enabled move: at each
   state, and at its revival (M002's recovery closure), the kernel's
   codes, ample set and pruned count equal the reference's [enabled] and
   [reduced] lists mapped through [Semantics.code]. On a walk, maximal
   progress keeps a redeem and a refund of one edge from being enabled
   together; a revived party that knows the secret after its edge
   expired has both. *)
let qcheck_kernel_matches_reference =
  QCheck.Test.make ~name:"Semantics.scan == reference enabledness" ~count:100
    (QCheck.make
       ~print:QCheck.Print.(pair print_case int)
       QCheck.Gen.(pair gen_case (int_bound 1_000_000)))
    (fun (case, seed) ->
      let m = model_of case in
      let rng = Random.State.make [| seed |] in
      let codes = Array.make (Semantics.max_moves m) 0 in
      let agrees s =
        let b = Bytes.unsafe_of_string (s : Global_state.t :> string) in
        let n = Semantics.scan m b 0 codes in
        let enabled = Array.to_list (Array.sub codes 0 n) in
        let k = Semantics.ample m b 0 codes n in
        let ref_ample, ref_pruned = Reference.Enabledness.reduced m s in
        if enabled <> List.map Semantics.code (Reference.Enabledness.enabled m s) then
          Alcotest.failf "%a: enabled codes differ" Global_state.pp s;
        if Array.to_list (Array.sub codes 0 k) <> List.map Semantics.code ref_ample then
          Alcotest.failf "%a: ample set differs" Global_state.pp s;
        if n - k <> ref_pruned then Alcotest.failf "%a: pruned count differs" Global_state.pp s;
        enabled
      in
      let rec walk s =
        let d = Global_state.draft s in
        Global_state.revive d;
        ignore (agrees (Global_state.freeze d));
        let enabled = agrees s in
        if enabled <> [] then
          walk (Semantics.apply m s (List.nth enabled (Random.State.int rng (List.length enabled))))
      in
      for _ = 1 to 10 do
        walk (Semantics.init m)
      done;
      true)

(* --- M003: the one-pass victim search against the per-party scan ----- *)

(* A packed state over [np] parties (2-70, so some graphs need a second
   62-party block) and random edges: endpoints drawn from a random
   suffix [lo, np) of the parties, so victims above 62 occur, and random
   statuses. *)
let gen_m003_case =
  QCheck.Gen.(
    int_range 2 70 >>= fun np ->
    int_range 1 90 >>= fun ne ->
    int_bound (np - 1) >>= fun lo ->
    let party = int_range lo (np - 1) in
    map
      (fun (ends, statuses) ->
        ( np,
          Array.of_list (List.map fst ends),
          Array.of_list (List.map snd ends),
          Array.of_list statuses ))
      (pair
         (list_repeat ne (pair party party))
         (list_repeat ne
            (oneofl Ac3_contract.Swap_template.[ Unpublished; Published; Redeemed; Refunded ]))))

let print_m003_case (np, from, to_, statuses) =
  Printf.sprintf "%d parties, edges %s" np
    (String.concat " "
       (List.init (Array.length from) (fun i ->
            Printf.sprintf "%d->%d:%c" from.(i) to_.(i) (Global_state.status_char statuses.(i)))))

let qcheck_m003_matches_reference =
  let base = model_of (Flow.Single_leader, `Two_party, 0) in
  QCheck.Test.make ~name:"Rules.unsafe_party == per-party reference scan" ~count:500
    (QCheck.make ~print:print_m003_case gen_m003_case)
    (fun (np, edge_from, edge_to, edges) ->
      let m = { base with Semantics.edge_from; edge_to } in
      let s =
        Global_state.make ~edges ~knows:(Array.make np false) ~alive:(Array.make np true) ~time:0
          ~decision:Protocol.Undecided ~crashes_left:0
      in
      Rules.unsafe_party m s = Reference.M003.unsafe_party m s)

(* --- The packed state's encoding and apply's input immutability ------ *)

(* A state's components, as [Global_state.make] takes them. *)
type parts = Ref_model.parts = {
  edges : Ac3_contract.Swap_template.status array;
  knows : bool array;
  alive : bool array;
  time : int;
  decision : Protocol.decision;
  crashes_left : int;
}

let gen_state ~edges ~parties =
  QCheck.Gen.(
    let counter = oneof [ int_range 0 12; int_range 10 100_000 ] in
    map
      (fun ((e, k, a), (time, decision, crashes_left)) ->
        {
          edges = Array.of_list e;
          knows = Array.of_list k;
          alive = Array.of_list a;
          time;
          decision;
          crashes_left;
        })
      (pair
         (triple
            (list_repeat edges
               (oneofl Ac3_contract.Swap_template.[ Unpublished; Published; Redeemed; Refunded ]))
            (list_repeat parties bool) (list_repeat parties bool))
         (triple counter (oneofl Ac3_flow.Protocol.[ Undecided; Commit; Abort ]) counter)))

(* Pairs of one shape: half independent, half a copy with at most one
   component redrawn, so equal and near-equal pairs both occur. *)
let gen_state_pair =
  QCheck.Gen.(
    pair (int_range 1 6) (int_range 1 6) >>= fun (edges, parties) ->
    let state = gen_state ~edges ~parties in
    state >>= fun a ->
    let copy s =
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
        return (a, { a with decision = c.decision });
        return (a, { a with crashes_left = c.crashes_left });
        return (a, { a with time = c.crashes_left; crashes_left = c.time });
      ])

let print_state s = Fmt.str "%a crashes_left=%d" Global_state.pp s (Global_state.crashes_left s)

let print_parts p = print_state (Ref_model.encode p)

(* [make] then the accessors gives the components back, and two packed
   states of one shape are equal exactly when their components are. *)
let qcheck_make_roundtrip =
  QCheck.Test.make ~name:"Global_state.make: accessors and equality" ~count:500
    (QCheck.make ~print:QCheck.Print.(pair print_parts print_parts) gen_state_pair)
    (fun (a, b) ->
      let sa = Ref_model.encode a and sb = Ref_model.encode b in
      Ref_model.decode sa = a && Ref_model.decode sb = b && (sa = sb) = (a = b))

(* Random walks from the initial state: at each step every enabled move
   is applied to the current state, and no state met so far on the walk
   may change its bytes. A successor is a copy of its source's bytes, so
   a write to the source instead of the copy shows up here. *)
let qcheck_apply_immutable =
  QCheck.Test.make ~name:"Semantics.apply never mutates its input" ~count:30
    (QCheck.make
       ~print:QCheck.Print.(pair print_case int)
       QCheck.Gen.(pair gen_case (int_bound 1_000_000)))
    (fun (case, seed) ->
      let m = model_of case in
      let rng = Random.State.make [| seed |] in
      let rec walk trail s =
        let trail = (s, Bytes.of_string (s : Global_state.t :> string)) :: trail in
        let succs = List.map (Semantics.apply m s) (scan_codes m s) in
        List.iter
          (fun (s, k) ->
            if Bytes.to_string k <> (s : Global_state.t :> string) then
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
          Alcotest.test_case "ac3wn: 200 checks in one process" `Quick test_many_ac3wn_checks;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "deterministic, POR active" `Quick test_deterministic_and_por;
          Alcotest.test_case "truncation reported" `Quick test_truncation_reported;
          Alcotest.test_case "iter_succs ascending" `Quick test_iter_succs_ascending;
          QCheck_alcotest.to_alcotest qcheck_explore_matches_reference;
          Alcotest.test_case "intern table growth == reference explorer" `Quick
            test_table_growth_matches_reference;
          Alcotest.test_case "max_nodes above the id range refused" `Quick test_max_nodes_limit;
          Alcotest.test_case "intern byte compare under a hash collision" `Quick
            test_intern_hash_collision;
          QCheck_alcotest.to_alcotest qcheck_kernel_matches_reference;
          Alcotest.test_case "bytes per explored state" `Quick test_bytes_per_state;
          QCheck_alcotest.to_alcotest qcheck_m003_matches_reference;
          QCheck_alcotest.to_alcotest qcheck_make_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_apply_immutable;
        ] );
      ( "corpus",
        [ Alcotest.test_case "corpus verdicts predicted" `Quick test_corpus_predicted ] );
      ( "replay",
        [
          Alcotest.test_case "counterexample concretizes and replays" `Slow
            test_counterexample_replays;
          Alcotest.test_case "driver trace projects onto checker moves" `Slow
            test_driver_trace_projects;
          Alcotest.test_case "ac3wn abort path projects onto checker moves" `Slow
            test_ac3wn_abort_projects;
        ] );
    ]
