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
module Trace = Ac3_sim.Trace

let trace_string t = Fmt.str "%a" Trace.pp t

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
        ] );
      ( "sweep", [ Alcotest.test_case "50-run smoke sweep" `Slow test_smoke_sweep ] );
      ( "shrink",
        [
          Alcotest.test_case "seed 92 shrinks to a crash" `Slow test_shrink_seed_92;
          Alcotest.test_case "weaken_fault" `Quick test_weaken_fault;
        ] );
    ]
