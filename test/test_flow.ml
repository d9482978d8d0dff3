(* Flow-analyzer tests: the interval kernel on hand-built graphs, the
   F rule family on broken economic profiles, the retired G007/G009
   aliases, the M006 soundness bridge into the model checker, the
   state-machine payout-routing rules the sweep hardened (S004/S007),
   and the headline soundness property — every concrete settlement the
   chaos runner produces lies inside the static intervals, over the
   committed corpus and freshly sampled plans. *)

module Keys = Ac3_crypto.Keys
module Amount = Ac3_chain.Amount
module Value = Ac3_chain.Value
module Contract_iface = Ac3_chain.Contract_iface
module Ac2t = Ac3_contract.Ac2t
module Econ = Ac3_contract.Econ
module Flow = Ac3_flow.Flow
module D = Ac3_verify.Diagnostic
module Flow_lint = Ac3_verify.Flow_lint
module Graph_lint = Ac3_verify.Graph_lint
module State_machine = Ac3_verify.State_machine
module Probes = Ac3_verify.Probes
module V = Ac3_verify.Verify
module Semantics = Ac3_model.Semantics
module Explore = Ac3_model.Explore
module Rules = Ac3_model.Rules
module Plan = Ac3_chaos.Plan
module Runner = Ac3_chaos.Runner
module Repro = Ac3_chaos.Repro
open Ac3_core

let coin n = Amount.of_int n

let alice = Keys.create "flow-test-alice"

let bob = Keys.create "flow-test-bob"

let dave = Keys.create "flow-test-dave"

let edge ?(amount = coin 100) from_ to_ chain =
  { Ac2t.from_pk = Keys.public from_; to_pk = Keys.public to_; amount; chain }

let ids n = Scenarios.identities ~ns:"tf" n

let two_party () = Scenarios.two_party_graph ~chain1:"c0" ~chain2:"c1" (ids 2) ~timestamp:1.0

let has rule ds = D.by_rule rule ds <> []

let rules ds = List.sort_uniq String.compare (List.map (fun d -> d.D.rule) ds)

let iv lo hi = { Flow.lo; hi }

let check_interval msg expected actual =
  Alcotest.(check (pair int64 int64)) msg (expected.Flow.lo, expected.Flow.hi)
    (actual.Flow.lo, actual.Flow.hi)

(* --- the interval kernel ------------------------------------------------- *)

(* Budget 0 on clean statics: only all-commit and all-abort settle, so
   the interval is the hull {0, commit}. *)
let test_budget0_hull () =
  let edges = [ edge ~amount:(coin 10) alice bob "c0"; edge ~amount:(coin 20) bob alice "c1" ] in
  let a = Flow.analyze_edges ~fault_budget:0 ~profile:Flow.Single_leader edges in
  let pk_a = Keys.public alice and pk_b = Keys.public bob in
  check_interval "alice on c0" (iv (-10L) 0L) (Flow.interval_for a ~pk:pk_a ~chain:"c0");
  check_interval "alice on c1" (iv 0L 20L) (Flow.interval_for a ~pk:pk_a ~chain:"c1");
  check_interval "bob on c0" (iv 0L 10L) (Flow.interval_for a ~pk:pk_b ~chain:"c0");
  check_interval "bob on c1" (iv (-20L) 0L) (Flow.interval_for a ~pk:pk_b ~chain:"c1");
  check_interval "absent pair is exactly zero" (iv 0L 0L)
    (Flow.interval_for a ~pk:pk_a ~chain:"nowhere");
  Alcotest.(check bool) "no widening" false a.Flow.widened;
  Alcotest.(check int) "no crash witnesses at budget 0" 0 (List.length a.Flow.witnesses)

(* Budget 1 under a single leader: the non-leader's outgoing edge can be
   redeemed against it while its incoming edge refunds — the classic
   Sec 3 loss, visible as a widened lower bound and an F001 witness. *)
let test_budget1_single_leader () =
  let edges = [ edge ~amount:(coin 10) alice bob "c0"; edge ~amount:(coin 20) bob alice "c1" ] in
  let a = Flow.analyze_edges ~fault_budget:1 ~profile:Flow.Single_leader edges in
  let pk_b = Keys.public bob in
  check_interval "bob can lose his whole escrow" (iv (-20L) 0L)
    (Flow.interval_for a ~pk:pk_b ~chain:"c1");
  check_interval "bob's incoming is redeemable" (iv 0L 10L)
    (Flow.interval_for a ~pk:pk_b ~chain:"c0");
  (match a.Flow.witnesses with
  | [ w ] ->
      Alcotest.(check string) "victim is the non-leader" pk_b w.Flow.victim;
      Alcotest.(check (list int)) "its own crash realizes the loss" [ 1 ] w.Flow.crash;
      Alcotest.(check string) "the redeemed edge is bob's outgoing" "c1"
        w.Flow.redeemed.Ac2t.chain
  | ws -> Alcotest.fail (Printf.sprintf "expected exactly one witness, got %d" (List.length ws)));
  Alcotest.(check (list string)) "exposure is asymmetric: only the non-leader carries it"
    [ pk_b ] a.Flow.asymmetric;
  (* Budget monotony: more crashes cannot reach more than the per-edge
     independent hull, so the intervals are stable above budget 1. *)
  let a2 = Flow.analyze_edges ~fault_budget:3 ~profile:Flow.Single_leader edges in
  List.iter2
    (fun (x : Flow.exposure) (y : Flow.exposure) ->
      check_interval "budget-3 equals budget-1" x.Flow.interval y.Flow.interval)
    a.Flow.exposures a2.Flow.exposures

(* The witness profile settles globally: mixed settlements are
   unreachable, so even under crashes nobody ends below -out and the
   all-commit gain stays the ceiling. *)
let test_budget1_witness () =
  let edges = [ edge ~amount:(coin 10) alice bob "c0"; edge ~amount:(coin 20) bob alice "c1" ] in
  let a = Flow.analyze_edges ~fault_budget:1 ~profile:Flow.Witness edges in
  check_interval "bob on c1" (iv (-20L) 0L) (Flow.interval_for a ~pk:(Keys.public bob) ~chain:"c1");
  check_interval "bob on c0" (iv 0L 10L) (Flow.interval_for a ~pk:(Keys.public bob) ~chain:"c0");
  Alcotest.(check int) "no single-leader crash witnesses" 0 (List.length a.Flow.witnesses);
  Alcotest.(check int) "no asymmetric exposure" 0 (List.length a.Flow.asymmetric)

(* Secret knowledge propagates backward from the leader: a recipient
   with no directed path to the leader can never redeem, so its
   incoming value does not raise the upper bound. *)
let test_redeemable_narrowing () =
  let edges =
    [
      edge ~amount:(coin 10) alice bob "c0";
      edge ~amount:(coin 20) bob alice "c1";
      edge ~amount:(coin 5) bob dave "c2" (* dave has no outgoing edge: no path to alice *);
    ]
  in
  let a = Flow.analyze_edges ~fault_budget:1 ~profile:Flow.Single_leader edges in
  check_interval "unredeemable incoming is flattened" (iv 0L 0L)
    (Flow.interval_for a ~pk:(Keys.public dave) ~chain:"c2");
  (* The same edge under the witness profile needs no secret. *)
  let w = Flow.analyze_edges ~fault_budget:1 ~profile:Flow.Witness edges in
  check_interval "witness settlement needs no path" (iv 0L 5L)
    (Flow.interval_for w ~pk:(Keys.public dave) ~chain:"c2")

let test_interval_ops () =
  Alcotest.(check bool) "contains lo" true (Flow.contains (iv (-5L) 3L) (-5L));
  Alcotest.(check bool) "contains hi" true (Flow.contains (iv (-5L) 3L) 3L);
  Alcotest.(check bool) "outside" false (Flow.contains (iv (-5L) 3L) 4L);
  Alcotest.(check bool) "subsumes" true (Flow.subsumes (iv (-5L) 3L) (iv 0L 2L));
  Alcotest.(check bool) "not subsumes" false (Flow.subsumes (iv 0L 2L) (iv (-5L) 3L))

(* --- the F rules on broken economic profiles ----------------------------- *)

let broken base = Econ.swap ~code_id:base

let test_f005_nonconserving () =
  let edges = [ edge alice bob "c0" ] in
  let stranding = { (broken "half") with Econ.payout_num = 1; payout_den = 2 } in
  let a = Flow.analyze_edges ~econ:stranding ~profile:Flow.Witness edges in
  (match a.Flow.issues with
  | [ Flow.Stranding { payout; deposit; _ } ] ->
      Alcotest.(check int64) "half stranded" 50L payout;
      Alcotest.(check int64) "full deposit" 100L deposit
  | _ -> Alcotest.fail "expected one stranding issue");
  Alcotest.(check bool) "F005 is an error" true
    (has "F005-nonconserving" (D.errors (Flow_lint.of_analysis a)));
  let minting = { (broken "double") with Econ.payout_num = 2; payout_den = 1 } in
  let m = Flow.analyze_edges ~econ:minting ~profile:Flow.Witness edges in
  (match m.Flow.issues with
  | [ Flow.Minting _ ] -> ()
  | _ -> Alcotest.fail "expected one minting issue");
  Alcotest.(check bool) "minting is F005 too" true
    (has "F005-nonconserving" (D.errors (Flow_lint.of_analysis m)))

let test_f003_no_refund () =
  let econ = { (broken "no-refund") with Econ.refundable = false } in
  let a = Flow.analyze_edges ~econ ~profile:Flow.Witness [ edge alice bob "c0" ] in
  (match a.Flow.issues with
  | [ Flow.No_refund _ ] -> ()
  | _ -> Alcotest.fail "expected one no-refund issue");
  Alcotest.(check bool) "F003 is an error" true
    (has "F003-stranded-deposit" (D.errors (Flow_lint.of_analysis a)))

let test_f004_fee_bleed () =
  let econ = { (broken "bleed") with Econ.submit_fee = coin 5; max_retries = None } in
  let a = Flow.analyze_edges ~econ ~profile:Flow.Witness [ edge alice bob "c0" ] in
  Alcotest.(check bool) "fee bleed detected" true a.Flow.fee_bleed;
  let ds = Flow_lint.of_analysis a in
  Alcotest.(check bool) "F004 reported" true (has "F004-fee-bleed" ds);
  Alcotest.(check bool) "as a warning, not an error" false (has "F004-fee-bleed" (D.errors ds))

let test_screen () =
  let graph = two_party () in
  Alcotest.(check int) "shipped contracts screen clean" 0
    (List.length (Flow.screen ~profile:Flow.Witness graph));
  let econ = { (broken "half") with Econ.payout_num = 1; payout_den = 2 } in
  Alcotest.(check bool) "broken econ is caught pre-launch" true
    (Flow.screen ~econ ~profile:Flow.Witness graph <> [])

let test_f006_widening () =
  let edges = [ edge ~amount:(coin 10) alice bob "c0"; edge ~amount:(coin 20) bob alice "c1" ] in
  let a =
    Flow.analyze_edges ~fault_budget:0 ~static_races:true ~profile:Flow.Single_leader edges
  in
  Alcotest.(check bool) "budget 0 widened by a static race" true a.Flow.widened;
  check_interval "bob widened to the faulted hull" (iv (-20L) 0L)
    (Flow.interval_for a ~pk:(Keys.public bob) ~chain:"c1");
  Alcotest.(check bool) "F006 reported" true
    (has "F006-widened-races" (Flow_lint.of_analysis a))

(* --- the retired G007/G009 aliases --------------------------------------- *)

let test_conservation_aliases () =
  let edges = [ edge alice bob "btc" ] in
  let ds = Flow_lint.conservation edges in
  Alcotest.(check (list string)) "alias rules survive the retirement"
    [ "G007-net-payer"; "G009-value-delta" ] (rules ds);
  (* Byte-compatible renderings of the original pass-1 sums. *)
  let text rule = String.concat "\n" (List.map D.to_string (D.by_rule rule ds)) in
  Alcotest.(check bool) "G009 still prints signed per-chain deltas" true
    (Astring.String.is_infix ~affix:"commit delta: -100@btc" (text "G009-value-delta"));
  Alcotest.(check bool) "G007 still counts the paying edges" true
    (Astring.String.is_infix ~affix:"pays on 1 edge(s) but receives on none"
       (text "G007-net-payer"));
  (* The full graph pass emits them through the same alias. *)
  let g = Ac2t.create ~edges ~timestamp:1.0 in
  let full = Graph_lint.lint g in
  Alcotest.(check bool) "lint keeps G007" true (has "G007-net-payer" full);
  Alcotest.(check bool) "lint keeps G009" true (has "G009-value-delta" full)

(* A clean swap pair has no net payer and budget-0 flow adds no errors
   to the preflights. *)
let test_preflights_stay_clean () =
  let graph = two_party () in
  Alcotest.(check bool) "herlihy preflight clean" false
    (D.has_errors
       (V.herlihy_preflight ~graph ~delta:15.0 ~timelock_slack:2.0 ~start_time:0.0));
  Alcotest.(check bool) "ac3wn preflight clean" false (D.has_errors (V.ac3wn_preflight ~graph));
  Alcotest.(check bool) "but the exposure summary is there" true
    (has "F000-exposure" (V.ac3wn_preflight ~graph))

(* --- M006: the model checker cross-checks the intervals ------------------- *)

let test_m006_soundness_bridge () =
  let graph = two_party () in
  match
    Semantics.make ~profile:Flow.Single_leader ~graph ~delta:15.0 ~timelock_slack:2.0
      ~crash_budget:1
  with
  | Error e -> Alcotest.fail e
  | Ok model ->
      let t = Explore.run model in
      (* Honest budget-matched intervals: every reachable settlement is
         inside them, M006 stays silent — even though Herlihy loses
         deposits here (M001 fires elsewhere). *)
      let honest = Flow.analyze ~fault_budget:1 ~profile:Flow.Single_leader graph in
      let ds, _ = Rules.check ~flow:honest t in
      Alcotest.(check bool) "honest intervals are sound" false (has "M006-interval-unsound" ds);
      (* Deliberately narrowed intervals: any settled transfer escapes
         {0,0}, so the checker must catch the (injected) unsoundness. *)
      let narrowed =
        {
          honest with
          Flow.exposures =
            List.map
              (fun (x : Flow.exposure) -> { x with Flow.interval = iv 0L 0L })
              honest.Flow.exposures;
        }
      in
      let ds, vs = Rules.check ~flow:narrowed t in
      Alcotest.(check bool) "narrowed intervals are refuted" true
        (has "M006-interval-unsound" ds);
      (match List.find_opt (fun (v : Rules.violation) -> v.Rules.rule = "M006-interval-unsound") vs with
      | Some v -> Alcotest.(check bool) "with a replayable schedule" true (v.Rules.schedule <> [])
      | None -> Alcotest.fail "M006 violation missing from the violation list")

(* --- S004/S007: payout accounting in the state-machine pass --------------- *)

(* A contract that releases more than its deposit used to crash the
   explorer with an uncaught Amount overflow; now S004 reports it. *)
module Overpay = struct
  let code_id = "test-overpay"

  let init _ctx _args = Ok (Value.String "P")

  let call ctx ~state:_ ~fn ~args:_ =
    match fn with
    | "drain" ->
        Contract_iface.ok
          ~payouts:[ (Keys.address_of_public ctx.Contract_iface.sender, coin 2000) ]
          (Value.String "done")
    | _ -> Contract_iface.reject "unknown fn %s" fn
end

let overpay_spec () =
  let deployer = Keys.public alice in
  {
    State_machine.code = (module Overpay : Contract_iface.CODE);
    chain_id = "c0";
    deployer;
    deposit = coin 1000;
    init_args = Value.Unit;
    init_time = 0.0;
    probes =
      [ { State_machine.label = "drain"; fn = "drain"; args = Value.Unit; caller = deployer; time = 1.0 } ];
    classify = (function Value.String "done" -> State_machine.Redeemed | _ -> State_machine.Published);
    payee_of = None;
    max_nodes = 100;
  }

let test_s004_over_release_no_crash () =
  match State_machine.explore (overpay_spec ()) with
  | Error e -> Alcotest.fail e
  | Ok auto ->
      Alcotest.(check bool) "over-release is an S004 error" true
        (has "S004-conservation" (D.errors (State_machine.check auto)))

let test_s007_misrouted_payout () =
  (* The shipped contracts route every payout to the settlement payee. *)
  Alcotest.(check bool) "htlc routes payouts correctly" false
    (has "S007-misrouted-payout" (V.contract (Probes.htlc ())));
  (* Declaring that no payout is legitimate turns every release into a
     misroute: totals still balance, S004 stays quiet, S007 fires. *)
  let rogue = { (Probes.htlc ()) with State_machine.payee_of = Some (fun _ _ -> None) } in
  let ds = V.contract rogue in
  Alcotest.(check bool) "misroute reported" true (has "S007-misrouted-payout" (D.errors ds));
  Alcotest.(check bool) "conservation alone does not catch it" false
    (has "S004-conservation" ds)

(* --- soundness against the dynamic runner --------------------------------- *)

let corpus_dir () =
  if Sys.file_exists "chaos_corpus" then "chaos_corpus" else Filename.concat "test" "chaos_corpus"

let corpus_files () =
  let dir = corpus_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every committed reproducer — including the deposit-losing crash
   schedules — settles inside the static intervals: losing a deposit to
   a crash is exactly what the budget-1 lower bound predicts. *)
let test_corpus_inside_intervals () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun path ->
      let repro = Repro.of_string (read_file path) in
      let reports =
        Runner.run_all ~spec:repro.Repro.spec ~plan:repro.Repro.plan ~instrument:false ()
      in
      List.iter
        (fun (r : Runner.report) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s settles inside its intervals" path
               (Runner.protocol_name r.Runner.protocol))
            0
            (List.length r.Runner.flow_violations))
        reports)
    files

(* The corpus carries the acceptance-criterion F001 reproducer: exported
   by `ac3 flow --export`, confirmed dynamically, replaying bit-exact. *)
let test_f001_reproducer_confirmed () =
  let path = Filename.concat (corpus_dir ()) "flow_f001_two_party.json" in
  let repro = Repro.of_string (read_file path) in
  Alcotest.(check bool) "the note names the F001 witness" true
    (Astring.String.is_infix ~affix:"F001" repro.Repro.note);
  Alcotest.(check bool) "herlihy loses a deposit under the witness crash" true
    (List.exists
       (fun (e : Repro.expectation) ->
         e.Repro.protocol = Runner.P_herlihy && e.Repro.deposit_lost)
       repro.Repro.expect);
  Alcotest.(check bool) "and the reproducer replays bit-exact" true
    (Repro.replay_ok (Repro.replay repro))

(* Freshly sampled fault plans: the runner's budget-1 cross-check never
   fires, for any seed. *)
let qcheck_sampled_runs_inside_intervals =
  QCheck.Test.make ~name:"sampled chaos runs settle inside the static intervals" ~count:3
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 400))
    (fun seed ->
      let spec, plan = Plan.sample ~seed () in
      let reports = Runner.run_all ~spec ~plan ~instrument:false () in
      List.for_all (fun (r : Runner.report) -> r.Runner.flow_violations = []) reports)

let () =
  Alcotest.run "flow"
    [
      ( "intervals",
        [
          Alcotest.test_case "budget 0 is the commit hull" `Quick test_budget0_hull;
          Alcotest.test_case "budget 1 single-leader widens the victim" `Quick
            test_budget1_single_leader;
          Alcotest.test_case "witness profile excludes mixed settlements" `Quick
            test_budget1_witness;
          Alcotest.test_case "secretless recipients cannot gain" `Quick test_redeemable_narrowing;
          Alcotest.test_case "interval algebra" `Quick test_interval_ops;
          Alcotest.test_case "static races widen budget 0 (F006)" `Quick test_f006_widening;
        ] );
      ( "econ-rules",
        [
          Alcotest.test_case "F005 minting and stranding" `Quick test_f005_nonconserving;
          Alcotest.test_case "F003 missing refund path" `Quick test_f003_no_refund;
          Alcotest.test_case "F004 unbounded fee bleed" `Quick test_f004_fee_bleed;
          Alcotest.test_case "pre-launch screen" `Quick test_screen;
        ] );
      ( "aliases",
        [
          Alcotest.test_case "G007/G009 byte-compatible aliases" `Quick
            test_conservation_aliases;
          Alcotest.test_case "preflights stay clean on swaps" `Quick test_preflights_stay_clean;
        ] );
      ( "model-bridge",
        [ Alcotest.test_case "M006 refutes narrowed intervals" `Quick test_m006_soundness_bridge ]
      );
      ( "state-machine",
        [
          Alcotest.test_case "S004 over-release without a crash" `Quick
            test_s004_over_release_no_crash;
          Alcotest.test_case "S007 misrouted payouts" `Quick test_s007_misrouted_payout;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "corpus settles inside intervals" `Slow test_corpus_inside_intervals;
          Alcotest.test_case "F001 reproducer is confirmed" `Quick test_f001_reproducer_confirmed;
          QCheck_alcotest.to_alcotest qcheck_sampled_runs_inside_intervals;
        ] );
    ]
