(* Chaos harness tests: plan determinism and serialization, the
   replay-equals-original property, the committed reproducer corpus, and
   a bounded smoke sweep over randomized universes.

   Everything here is seeded: a failure always reproduces with
   `ac3 chaos --seed <n> --runs 1`. The longer 200-run sweep lives
   behind `dune build @chaos` and is excluded from the default test
   alias. *)

module Plan = Ac3_chaos.Plan
module Oracle = Ac3_chaos.Oracle
module Runner = Ac3_chaos.Runner
module Shrink = Ac3_chaos.Shrink
module Repro = Ac3_chaos.Repro
module Json = Ac3_crypto.Codec.Json
module Keys = Ac3_crypto.Keys
module Trace = Ac3_sim.Trace
module Metrics = Ac3_obs.Metrics
module Span = Ac3_obs.Span

let trace_string t = Fmt.str "%a" (Trace.pp Ac3_flow.Protocol.pp_event) t

let verdict_string (r : Runner.report) =
  match r.exec with
  | Runner.Verdict v -> Fmt.str "%a" Oracle.pp v
  | Runner.Rejected m -> "rejected: " ^ m
  | Runner.Skipped m -> "skipped: " ^ m

(* --- plans: sampling determinism and JSON round-trips ------------------ *)

let test_sample_deterministic () =
  for seed = 0 to 99 do
    let spec1, plan1 = Plan.sample ~seed () in
    let spec2, plan2 = Plan.sample ~seed () in
    Alcotest.(check bool) (Printf.sprintf "spec stable at seed %d" seed) true (spec1 = spec2);
    Alcotest.(check bool) (Printf.sprintf "plan stable at seed %d" seed) true (plan1 = plan2)
  done

let test_plan_json_roundtrip () =
  for seed = 0 to 199 do
    let spec, plan = Plan.sample ~seed () in
    let spec' = Plan.spec_of_json (Plan.spec_to_json spec) in
    let plan' = Plan.of_string (Plan.to_string plan) in
    Alcotest.(check bool) (Printf.sprintf "spec roundtrips at seed %d" seed) true (spec = spec');
    Alcotest.(check bool) (Printf.sprintf "plan roundtrips at seed %d" seed) true (plan = plan')
  done

let test_plan_times_sorted_and_bounded () =
  for seed = 0 to 199 do
    let _, plan = Plan.sample ~seed () in
    Alcotest.(check bool) "non-empty" true (plan <> []);
    Alcotest.(check bool) "sorted" true (Plan.sort_by_time plan = plan);
    List.iter
      (fun f ->
        let t = Plan.time_of_fault f in
        (* restarts trail their crash by a sampled duration, so they may
           land past the sampling horizon *)
        let bound =
          match f with Plan.Restart _ -> Plan.horizon +. 200.0 | _ -> Plan.horizon
        in
        Alcotest.(check bool) "within horizon" true (t >= 0.0 && t <= bound))
      plan
  done

let test_plan_rejects_malformed () =
  let raises s =
    match Plan.of_string s with
    | exception (Plan.Malformed _ | Ac3_crypto.Codec.Decode_error _) -> ()
    | _ -> Alcotest.failf "accepted malformed plan %s" s
  in
  raises "{}";
  raises {|[{"kind":"meteor","at":1.0}]|};
  raises {|[{"kind":"crash","at":1.0}]|};
  (* out-of-range fields that injection would crash on or silently
     skip; unknown chain names stay tolerated *)
  raises {|[{"kind":"drop","chain":"c0","at":1.0,"duration":5.0,"p":7.5}]|};
  raises {|[{"kind":"drop","chain":"c0","at":1.0,"duration":5.0,"p":-0.1}]|};
  raises {|[{"kind":"delay","chain":"c0","at":1.0,"duration":5.0,"factor":-2.0}]|};
  raises {|[{"kind":"mining_stall","chain":"c0","at":-5.0,"duration":5.0}]|};
  raises {|[{"kind":"witness_outage","at":1.0,"duration":-5.0}]|};
  raises {|[{"kind":"mining_burst","chain":"c0","at":1.0,"blocks":-1}]|};
  raises {|[{"kind":"mining_burst","chain":"c0","at":1.0,"blocks":6}]|};
  raises {|[{"kind":"partition","chain":"c0","at":1.0,"duration":5.0,"cut":-1}]|};
  ignore (Plan.of_string {|[{"kind":"drop","chain":"nowhere","at":1.0,"duration":5.0,"p":1.0}]|});
  (* spec arity must match the shape *)
  match
    Plan.spec_of_json
      (Json.Obj
         [
           ("seed", Json.Int 1);
           ("shape", Json.String "cyclic");
           ("parties", Json.Int 5);
           ("nchains", Json.Int 2);
           ("extra_edges", Json.Int 0);
         ])
  with
  | exception Plan.Malformed _ -> ()
  | _ -> Alcotest.fail "accepted cyclic spec with 5 parties"

(* `ac3 check -s ring -n N --export` writes a ring spec of any size the
   identity pool allows; `chaos --replay` must read every one of them. *)
let test_ring_specs_replayable () =
  List.iter
    (fun n ->
      let spec =
        { Plan.seed = 1; shape = Plan.Ring; parties = n; nchains = n; extra_edges = 0; load = 1 }
      in
      let repro = { Repro.note = "ring"; spec; plan = []; expect = [] } in
      let parsed = Repro.of_string (Repro.to_string repro) in
      Alcotest.(check bool)
        (Printf.sprintf "%d-party ring roundtrips" n)
        true (parsed.Repro.spec = spec))
    [ 9; Ac3_core.Scenarios.max_identities ]

(* --- determinism of whole runs (QCheck) -------------------------------- *)

(* Same seeded plan, run twice: byte-identical protocol traces, chaos
   traces, and oracle verdicts. Counts are small because each case is a
   full simulation. *)
let qcheck_run_deterministic =
  QCheck.Test.make ~name:"same seeded plan twice -> byte-identical run" ~count:3
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 400))
    (fun seed ->
      let spec, plan = Plan.sample ~seed () in
      List.for_all
        (fun protocol ->
          let r1 = Runner.run_one ~spec ~plan ~protocol () in
          let r2 = Runner.run_one ~spec ~plan ~protocol () in
          let t1 = Option.map trace_string r1.Runner.trace in
          let t2 = Option.map trace_string r2.Runner.trace in
          let c1 = Option.map trace_string r1.Runner.chaos_trace in
          let c2 = Option.map trace_string r2.Runner.chaos_trace in
          t1 = t2 && c1 = c2 && verdict_string r1 = verdict_string r2)
        [ Runner.P_herlihy; Runner.P_ac3wn ])

(* Serializing a plan and replaying the parsed copy matches the original
   run's verdicts exactly. *)
let qcheck_replay_equals_original =
  QCheck.Test.make ~name:"serialized plan replays to the original outcome" ~count:3
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 400))
    (fun seed ->
      let spec, plan = Plan.sample ~seed () in
      let reports = Runner.run_all ~spec ~plan () in
      let repro = Repro.of_reports ~note:"property" ~spec ~plan reports in
      let parsed = Repro.of_string (Repro.to_string repro) in
      Repro.replay_ok (Repro.replay parsed))

(* --- the committed reproducer corpus ----------------------------------- *)

(* cwd is the test dir under `dune runtest` but the project root under
   `dune exec test/test_chaos.exe`. *)
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

let test_corpus_replays () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun path ->
      let repro = Repro.of_string (read_file path) in
      let results = Repro.replay repro in
      List.iter
        (fun (r : Repro.replay_result) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s matches its recorded verdict" path
               (Runner.protocol_name r.Repro.expected.Repro.protocol))
            true r.Repro.matches)
        results;
      Alcotest.(check bool) (path ^ " has expectations") true (results <> []))
    (corpus_files ())

(* --- hostile reproducers: the decoder refuses, never crashes ----------- *)

(* One mutation of a corpus file's JSON tree, at the [n]-th node in
   pre-order: drop a key of an object, replace the node with a value of
   the wrong type or out of range, or duplicate an item of a list.
   Mutations that do not apply to the chosen node leave it as is. *)
type mutation = Drop_key of int | Replace of Json.t | Dup_item of int

let hostile_values =
  Json.
    [
      Null;
      Bool true;
      Int (-1);
      Int 0;
      Int max_int;
      Int min_int;
      Float (-1.5);
      Float 1e300;
      Float infinity;
      String "";
      String "nowhere";
      List [];
      Obj [];
      Obj [ ("kind", String "crash") ];
    ]

let rec mutate n m (j : Json.t) =
  (* [n] counts down through the pre-order walk; the result carries the
     count left over for the siblings that follow. *)
  if n = 0 then
    let j' =
      match (m, j) with
      | Replace v, _ -> v
      | Drop_key k, Json.Obj fields when fields <> [] ->
          Json.Obj (List.filteri (fun i _ -> i <> k mod List.length fields) fields)
      | Dup_item k, Json.List items when items <> [] ->
          let k = k mod List.length items in
          Json.List (List.concat (List.mapi (fun i x -> if i = k then [ x; x ] else [ x ]) items))
      | _ -> j
    in
    (j', -1)
  else
    let n = n - 1 in
    let rec children n = function
      | [] -> ([], n)
      | x :: rest ->
          let x', n = if n < 0 then (x, n) else mutate n m x in
          let rest', n = children n rest in
          (x' :: rest', n)
    in
    match j with
    | Json.List items ->
        let items, n = children n items in
        (Json.List items, n)
    | Json.Obj fields ->
        let keys = List.map fst fields in
        let values, n = children n (List.map snd fields) in
        (Json.Obj (List.combine keys values), n)
    | _ -> (j, n)

let mutation_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun k -> Drop_key k) (int_bound 15));
        (3, map (fun v -> Replace v) (oneofl hostile_values));
        (2, map (fun k -> Dup_item k) (int_bound 15));
      ])

(* 1..3 mutations of one corpus file, as the text a replay would read. *)
let hostile_repro_arb =
  let corpus = List.map (fun path -> Json.of_string (read_file path)) (corpus_files ()) in
  let gen =
    QCheck.Gen.(
      map2
        (fun j muts ->
          List.fold_left (fun j (n, m) -> fst (mutate n m j)) j muts
          |> Json.to_string_pretty)
        (oneofl corpus)
        (list_size (int_range 1 3) (pair (int_bound 40) mutation_gen)))
  in
  QCheck.make ~print:Fun.id gen

(* `ac3 chaos --replay` turns exactly these two exceptions into a
   refusal with exit 1; anything else would escape as a crash. *)
let qcheck_hostile_repro_refused =
  QCheck.Test.make ~name:"mutated corpus file: decodes or is refused" ~count:500
    hostile_repro_arb (fun text ->
      match Repro.of_string text with
      | _ -> true
      | exception (Plan.Malformed _ | Ac3_crypto.Codec.Decode_error _) -> true
      | exception e -> QCheck.Test.fail_reportf "uncaught %s" (Printexc.to_string e))

(* The acceptance-criterion entry: a Sec 3-style crash schedule under
   which Herlihy loses a deposit while AC3WN commits atomically. *)
let test_corpus_has_crash_schedule () =
  let is_crash = function Plan.Crash _ -> true | _ -> false in
  let witnesses =
    List.filter
      (fun path ->
        let repro = Repro.of_string (read_file path) in
        List.exists is_crash repro.Repro.plan
        && List.exists
             (fun (e : Repro.expectation) ->
               e.Repro.protocol = Runner.P_herlihy && (not e.Repro.pass) && e.Repro.deposit_lost)
             repro.Repro.expect
        && List.exists
             (fun (e : Repro.expectation) ->
               e.Repro.protocol = Runner.P_ac3wn && e.Repro.pass && e.Repro.committed)
             repro.Repro.expect)
      (corpus_files ())
  in
  Alcotest.(check bool) "a crash schedule breaks herlihy but not ac3wn" true (witnesses <> [])

(* --- one cast of parties for every plan, one live universe --------------- *)

(* Seed 1 samples a ring: every protocol but Nolan applies. *)
let ring_plan () =
  let spec, plan = Plan.sample ~seed:1 () in
  Alcotest.(check bool) "seed 1 samples a ring" true (spec.Plan.shape = Plan.Ring);
  (spec, plan)

let capacity = Keys.remaining_signatures (Keys.create "test-chaos:capacity")

let full_budgets ids = List.for_all (fun id -> Keys.remaining_signatures id = capacity) ids

let test_plan_shares_parties () =
  let spec, _ = ring_plan () in
  let expected = List.map Keys.public (Runner.plan_identities spec) in
  List.iter
    (fun protocol ->
      let _, _, ids, _ = Runner.build_universe ~spec ~protocol () in
      let name = Runner.protocol_name protocol in
      Alcotest.(check (list string)) (name ^ ": the plan's parties") expected
        (List.map Keys.public ids);
      Alcotest.(check bool) (name ^ ": full signature budgets") true (full_budgets ids))
    Runner.all_protocols;
  (* An AC3WN run signs with its universe's keys; the next run of the
     same plan still starts with full budgets. *)
  let universe, participants, ids, _ = Runner.build_universe ~spec ~protocol:Runner.P_ac3wn () in
  (* The chaos substrate: two nodes per chain and Δ = 3 x 5 s, known
     with or without a universe. *)
  List.iter
    (fun (id, (c : Ac3_core.Universe.chain)) ->
      Alcotest.(check int) (id ^ ": two nodes") 2 (Array.length c.Ac3_core.Universe.nodes))
    (Ac3_core.Universe.chains universe);
  Alcotest.(check (float 1e-9)) "Runner.delta" 15.0 Runner.delta;
  Alcotest.(check (float 1e-9)) "universe max_delta" 15.0 (Ac3_core.Universe.max_delta universe);
  let graph = Runner.build_graph ~spec ~ids ~timestamp:(Ac3_core.Universe.now universe) in
  (match Ac3_core.Ac3wn.execute universe ~timeout:10_000.0 ~graph ~participants () with
  | Ok result -> Alcotest.(check bool) "ac3wn commits" true result.Ac3_core.Ac3wn.committed
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "the run signed" false (full_budgets ids);
  let _, _, next, _ = Runner.build_universe ~spec ~protocol:Runner.P_herlihy () in
  Alcotest.(check bool) "the next run's budgets are full" true (full_budgets next)

(* The cast is one namespace for every plan: the same name is the same
   key, whichever seed the plan came from. *)
let test_cast_shared_across_plans () =
  let spec seed parties =
    { Plan.seed; shape = Plan.Ring; parties; nchains = parties; extra_edges = 0; load = 1 }
  in
  let keyed spec =
    List.map (fun id -> (Keys.label id, Keys.public id)) (Runner.plan_identities spec)
  in
  let five = keyed (spec 1 5) and three = keyed (spec 2 3) in
  Alcotest.(check (list (pair string string)))
    "seed 2's parties are seed 1's first three" (List.filteri (fun i _ -> i < 3) five) three

(* Every key a sweep's runs use comes from the cast: at most one per
   identity-pool name, plus the background-load keys. *)
let test_sweep_uses_one_cast () =
  let load = 2 in
  let specs = ref [] in
  let on_report (r : Runner.report) =
    if not (List.mem r.Runner.spec !specs) then specs := r.Runner.spec :: !specs
  in
  ignore (Runner.sweep ~on_report ~load ~seed:1 ~runs:40 ());
  Alcotest.(check int) "one spec per plan" 40 (List.length !specs);
  let party_keys = Hashtbl.create 16 and bg_keys = Hashtbl.create 4 in
  List.iter
    (fun spec ->
      let _, _, ids, bg = Runner.build_universe ~spec ~protocol:Runner.P_ac3wn () in
      List.iter (fun id -> Hashtbl.replace party_keys (Keys.public id) ()) ids;
      List.iter (fun p -> Hashtbl.replace bg_keys (Ac3_core.Participant.public p) ()) bg)
    !specs;
  Alcotest.(check bool)
    (Printf.sprintf "%d party keys over 40 plans" (Hashtbl.length party_keys))
    true
    (Hashtbl.length party_keys <= Ac3_core.Scenarios.max_identities);
  Alcotest.(check int) "the bg keys" (2 * (load - 1)) (Hashtbl.length bg_keys)

let test_skip_builds_nothing () =
  let spec, plan = ring_plan () in
  let r = Runner.run_one ~spec ~plan ~protocol:Runner.P_nolan () in
  Alcotest.(check string) "exec" "skipped: nolan: not a two-party swap" (verdict_string r);
  let run_span =
    Json.Obj
      [
        ("name", Json.String "run");
        ("start", Json.Float Runner.warmup);
        ("end", Json.Float Runner.warmup);
        ("attrs", Json.Obj [ ("seed", Json.String "1"); ("protocol", Json.String "nolan") ]);
        ("children", Json.List []);
      ]
  in
  Alcotest.(check string) "the run span at warmup"
    (Json.to_string (Json.Obj [ ("spans", Json.List [ run_span ]) ]))
    (Json.to_string (Span.to_json r.Runner.obs.Ac3_obs.Obs.spans));
  let expected = Metrics.create () in
  Metrics.incr
    (Metrics.counter expected ~labels:[ ("protocol", "nolan"); ("verdict", "skipped") ] "chaos.run");
  Metrics.add
    (Metrics.counter expected ~labels:[ ("protocol", "nolan") ] "chaos.faults_planned")
    (List.length plan);
  Alcotest.(check string) "only the chaos counters"
    (Json.to_string (Metrics.to_json expected))
    (Json.to_string (Metrics.to_json r.Runner.obs.Ac3_obs.Obs.metrics))

let test_report_drops_universe () =
  let spec, plan = ring_plan () in
  let universe_words =
    let universe, _, _, _ = Runner.build_universe ~spec ~protocol:Runner.P_ac3wn () in
    Obj.reachable_words (Obj.repr universe)
  in
  List.iter
    (fun protocol ->
      let report = Runner.run_one ~spec ~plan ~protocol () in
      let words = Obj.reachable_words (Obj.repr report) in
      Alcotest.(check bool)
        (Printf.sprintf "%s report (%d words) far below a fresh universe (%d words)"
           (Runner.protocol_name protocol) words universe_words)
        true (words * 5 < universe_words))
    Runner.all_protocols

(* --- the bounded smoke sweep ------------------------------------------- *)

let test_smoke_sweep () =
  let summary = Runner.sweep ~seed:1 ~runs:50 () in
  Alcotest.(check int) "no unexplained violations (harness self-check)" 0
    summary.Runner.unexplained_failures;
  Alcotest.(check int) "every settlement inside its static flow interval" 0
    summary.Runner.interval_violations;
  let counts p = List.assoc p summary.Runner.per_protocol in
  let herlihy = counts Runner.P_herlihy and ac3wn = counts Runner.P_ac3wn in
  (* every plan produced a verdict, a rejection, or a skip *)
  List.iter
    (fun (_, c) ->
      Alcotest.(check int) "all runs accounted for" 50
        (c.Runner.ran + c.Runner.rejected + c.Runner.skipped))
    summary.Runner.per_protocol;
  (* the paper's claim, measured: the witness protocol never loses a
     deposit under any sampled fault plan, the hashlock baseline does *)
  Alcotest.(check int) "ac3wn never violates the oracle" 0 ac3wn.Runner.violations;
  Alcotest.(check bool) "herlihy violates under chaos" true (herlihy.Runner.violations > 0);
  Alcotest.(check bool) "herlihy also commits under benign plans" true
    (herlihy.Runner.committed > 0)

(* --- shrinking --------------------------------------------------------- *)

(* Shrinking a known violation drops irrelevant faults and the result
   still fails; weakening never makes a fault stronger. *)
let test_shrink_seed_92 () =
  let spec, plan = Plan.sample ~seed:92 () in
  Alcotest.(check bool) "seed 92 fails before shrinking" true
    (Shrink.still_fails ~spec ~protocol:Runner.P_herlihy plan);
  let shrunk = Shrink.shrink ~spec ~protocol:Runner.P_herlihy plan in
  Alcotest.(check bool) "shrunk plan still fails" true
    (Shrink.still_fails ~spec ~protocol:Runner.P_herlihy shrunk);
  Alcotest.(check bool) "shrunk is no larger" true (List.length shrunk <= List.length plan);
  Alcotest.(check bool) "shrunk to the single crash fault" true
    (match shrunk with [ Plan.Crash _ ] -> true | _ -> false)

let test_weaken_fault () =
  let f = Plan.Drop { chain = "c0"; at = 10.0; duration = 100.0; p = 0.8 } in
  (match Shrink.weaken_fault f with
  | Some (Plan.Drop { duration; _ }) ->
      Alcotest.(check (float 1e-9)) "duration halves" 50.0 duration
  | _ -> Alcotest.fail "drop should weaken");
  (match Shrink.weaken_fault (Plan.Crash { party = 0; at = 5.0 }) with
  | None -> ()
  | Some _ -> Alcotest.fail "crash has no weaker form")

let () =
  Alcotest.run "chaos"
    [
      ( "plan",
        [
          Alcotest.test_case "sampling is deterministic" `Quick test_sample_deterministic;
          Alcotest.test_case "json roundtrip" `Quick test_plan_json_roundtrip;
          Alcotest.test_case "times sorted and bounded" `Quick test_plan_times_sorted_and_bounded;
          Alcotest.test_case "malformed plans rejected" `Quick test_plan_rejects_malformed;
          Alcotest.test_case "ring specs up to the identity pool replay" `Quick
            test_ring_specs_replayable;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest qcheck_run_deterministic;
          QCheck_alcotest.to_alcotest qcheck_replay_equals_original;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "every reproducer replays" `Quick test_corpus_replays;
          Alcotest.test_case "sec 3 crash schedule present" `Quick test_corpus_has_crash_schedule;
          QCheck_alcotest.to_alcotest qcheck_hostile_repro_refused;
        ] );
      ( "parties",
        [
          Alcotest.test_case "a plan's runs share parties" `Quick test_plan_shares_parties;
          Alcotest.test_case "plans share one cast" `Quick test_cast_shared_across_plans;
          Alcotest.test_case "a 40-plan sweep uses one cast" `Slow test_sweep_uses_one_cast;
          Alcotest.test_case "skipped nolan builds no universe" `Quick test_skip_builds_nothing;
          Alcotest.test_case "finished report holds no universe" `Quick test_report_drops_universe;
        ] );
      ( "sweep", [ Alcotest.test_case "50-run smoke sweep" `Slow test_smoke_sweep ] );
      ( "shrink",
        [
          Alcotest.test_case "seed 92 shrinks to a crash" `Slow test_shrink_seed_92;
          Alcotest.test_case "weaken_fault" `Quick test_weaken_fault;
        ] );
    ]
