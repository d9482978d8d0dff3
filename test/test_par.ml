(* ac3_par tests: pool semantics (ordering, exceptions, nesting), seed
   splitting, domain-safety of the key cache, and the determinism
   contract — parallel sweeps, model checks, replays and shrinks must be
   byte-identical to their sequential runs for every --jobs value.

   Simulation-backed cases are seeded, so any failure reproduces with
   the printed seed; jobs values deliberately include 3 (not a divisor
   of most task counts) and 8 (more workers than this container has
   cores). *)

module Pool = Ac3_par.Pool
module Keys = Ac3_crypto.Keys
module Json = Ac3_crypto.Codec.Json
module Plan = Ac3_chaos.Plan
module Oracle = Ac3_chaos.Oracle
module Runner = Ac3_chaos.Runner
module Shrink = Ac3_chaos.Shrink
module Repro = Ac3_chaos.Repro
module MC = Ac3_model.Checker
module S = Ac3_core.Scenarios

let jobs_values = [ 1; 2; 3; 8 ]

(* --- pool basics ------------------------------------------------------- *)

let test_empty_and_single () =
  List.iter
    (fun jobs ->
      Alcotest.(check (list int)) "empty task list" [] (Pool.run ~jobs []);
      Alcotest.(check (list int)) "single task" [ 42 ] (Pool.run ~jobs [ (fun () -> 42) ]))
    jobs_values

(* Skewed task durations: early tasks are the slowest, so with several
   workers the later tasks finish first — results must still come back
   in task order. *)
let test_order_preserved () =
  let n = 40 in
  let tasks =
    List.init n (fun i () ->
        let spin = (n - i) * 10_000 in
        let acc = ref 0 in
        for k = 1 to spin do
          acc := (!acc + k) land 0xFFFF
        done;
        ignore !acc;
        i)
  in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "order preserved at jobs %d" jobs)
        (List.init n Fun.id) (Pool.run ~jobs tasks))
    jobs_values

let test_map_mapi () =
  let xs = List.init 25 (fun i -> i * 3) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int)) "map = List.map" (List.map succ xs) (Pool.map ~jobs succ xs);
      Alcotest.(check (list int))
        "mapi = List.mapi"
        (List.mapi (fun i x -> i + x) xs)
        (Pool.mapi ~jobs (fun i x -> i + x) xs))
    jobs_values

exception Boom of int

(* All tasks run to completion; the lowest-indexed failure is the one
   re-raised, regardless of which worker hit its exception first. *)
let test_exception_policy () =
  List.iter
    (fun jobs ->
      let ran = Array.make 6 false in
      let tasks =
        List.init 6 (fun i () ->
            ran.(i) <- true;
            if i = 2 || i = 4 then raise (Boom i);
            i)
      in
      (match Pool.run ~jobs tasks with
      | _ -> Alcotest.failf "jobs %d: expected Boom" jobs
      | exception Boom i ->
          Alcotest.(check int) (Printf.sprintf "lowest failing index at jobs %d" jobs) 2 i);
      Alcotest.(check bool)
        (Printf.sprintf "all tasks still ran at jobs %d" jobs)
        true
        (Array.for_all Fun.id ran))
    jobs_values

let test_nested_rejected () =
  match Pool.run ~jobs:2 [ (fun () -> Pool.run ~jobs:2 [ (fun () -> 0) ]) ] with
  | _ -> Alcotest.fail "nested Pool.run should raise"
  | exception Pool.Nested -> ()

(* After a rejected nested call (and after an exception), the pool must
   be reusable — the DLS flag is restored. *)
let test_pool_reusable () =
  (try ignore (Pool.run [ (fun () -> raise Exit) ]) with Exit -> ());
  Alcotest.(check (list int)) "usable after exception" [ 7 ] (Pool.run [ (fun () -> 7) ])

let test_first_success () =
  let find_map_spec f xs = List.find_map (fun x -> f x) xs in
  List.iter
    (fun jobs ->
      (* no winner *)
      Alcotest.(check (option int))
        "all None" None
        (Pool.first_success ~jobs (List.init 10 (fun _ () -> None)));
      Alcotest.(check (option int)) "empty" None (Pool.first_success ~jobs []);
      (* first Some by index wins even when a later, cheaper Some exists *)
      let mk i () = if i = 3 || i = 7 then Some i else None in
      let thunks = List.init 10 mk in
      Alcotest.(check (option int))
        (Printf.sprintf "first by index at jobs %d" jobs)
        (find_map_spec (fun f -> f ()) thunks)
        (Pool.first_success ~jobs thunks))
    jobs_values

(* --- seed splitting ---------------------------------------------------- *)

let test_split_seed () =
  (* deterministic *)
  Alcotest.(check int) "stable" (Pool.split_seed ~root:1 ~index:0) (Pool.split_seed ~root:1 ~index:0);
  (* non-negative (usable directly as an Rng seed) and pairwise distinct
     over a root x index grid *)
  let seen = Hashtbl.create 1024 in
  for root = 0 to 15 do
    for index = 0 to 63 do
      let s = Pool.split_seed ~root ~index in
      Alcotest.(check bool) "non-negative" true (s >= 0);
      (match Hashtbl.find_opt seen s with
      | Some (r, i) -> Alcotest.failf "collision: (%d,%d) and (%d,%d) -> %d" r i root index s
      | None -> ());
      Hashtbl.add seen s (root, index)
    done
  done;
  (match Pool.split_seed ~root:0 ~index:(-1) with
  | _ -> Alcotest.fail "negative index should be rejected"
  | exception Invalid_argument _ -> ());
  (* derived streams are actually independent: the first draws differ *)
  let first_draw index =
    Ac3_sim.Rng.bits (Ac3_sim.Rng.create (Pool.split_seed ~root:9 ~index))
  in
  Alcotest.(check bool) "streams differ" true (first_draw 0 <> first_draw 1)

(* --- key cache under concurrent domains -------------------------------- *)

(* Two domains hammer Keys.create on overlapping labels: same label must
   yield one shared identity (equal addresses), distinct labels distinct
   identities, and nothing crashes. This is the regression test for the
   cache mutex — before it, two domains racing on a cold label could
   each generate a different secret. *)
let test_keys_concurrent_create () =
  let label k = Printf.sprintf "par-keys-%d" k in
  let worker () = Array.init 24 (fun k -> Keys.address (Keys.create ~height:4 (label k))) in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  let a1 = Domain.join d1 and a2 = Domain.join d2 in
  Alcotest.(check bool) "same label, same identity in both domains" true (a1 = a2);
  let distinct = Hashtbl.create 32 in
  Array.iter (fun a -> Hashtbl.replace distinct a ()) a1;
  Alcotest.(check int) "distinct labels, distinct identities" 24 (Hashtbl.length distinct);
  Array.iteri
    (fun k a ->
      Alcotest.(check string)
        (Printf.sprintf "cache agrees with domains for %s" (label k))
        a
        (Keys.address (Keys.create ~height:4 (label k))))
    a1

(* --- interference sanitizer -------------------------------------------- *)

(* Isolated tasks: each rebuilds its identity from its own label with a
   full signature budget ([Keys.fresh]), the discipline every sweep in
   this repo follows. Reruns reproduce the same result, so the
   sanitizer stays silent at every jobs value. *)
let test_sanitize_clean () =
  List.iter
    (fun jobs ->
      let results =
        Pool.run ~jobs ~sanitize:true
          (List.init 12 (fun i () ->
               let id = Keys.fresh ~height:4 (Printf.sprintf "sanitize-clean-%d" i) in
               ignore (Keys.sign id "msg");
               (Keys.address id, Keys.remaining_signatures id)))
      in
      Alcotest.(check int) "all results collected" 12 (List.length results);
      List.iter
        (fun (_, remaining) -> Alcotest.(check int) "full budget minus one" 15 remaining)
        results)
    jobs_values

(* A deliberately racy identity cache: the unlocked memo table
   [Keys.create] used before its mutex. Two domains racing a cold label
   can each build a secret and hand out different objects (equal key
   material, independent signature counters); when the race window is
   missed, every task shares ONE memoized mutable counter. *)
let racy_create cache label =
  match Hashtbl.find_opt cache label with
  | Some id -> id
  | None ->
      let id = Keys.fresh ~height:5 label in
      Hashtbl.add cache label id;
      id

(* Either way a task's remaining-signature count depends on what other
   executions did, so the sequential rerun is strictly below every
   parallel observation and the sanitizer must flag it with a task
   index. *)
let test_sanitize_catches_keys_race () =
  let cache = Hashtbl.create 8 in
  let tasks =
    List.init 8 (fun _ () ->
        let id = racy_create cache "sanitize-race" in
        ignore (Keys.sign id "interference");
        Keys.remaining_signatures id)
  in
  match Pool.run ~jobs:4 ~sanitize:true tasks with
  | _ -> Alcotest.fail "sanitizer missed the shared signature counter"
  | exception Pool.Interference { index; first; rerun } ->
      Alcotest.(check bool) "offending index in range" true (index >= 0 && index < 8);
      Alcotest.(check bool) "fingerprints differ" true (first <> rerun)

(* Without ~sanitize the same interfering batch goes unnoticed — the
   check is opt-in, not ambient. *)
let test_sanitize_opt_in () =
  let cache = Hashtbl.create 8 in
  let results =
    Pool.run ~jobs:4
      (List.init 4 (fun _ () ->
           let id = racy_create cache "sanitize-race-quiet" in
           ignore (Keys.sign id "interference");
           Keys.remaining_signatures id))
  in
  Alcotest.(check int) "completes without sanitize" 4 (List.length results)

(* A sanitized sweep passes: chaos runs rebuild universe and identities
   from the run seed alone, so they are idempotent by construction. *)
let test_sanitize_sweep_clean () =
  let s = Runner.sweep ~jobs:3 ~sanitize:true ~seed:11 ~runs:2 () in
  Alcotest.(check int) "sweep completes under sanitize" 2 s.Runner.sweep_runs

(* --- chaos sweep: parallel == sequential ------------------------------- *)

let verdict_string (r : Runner.report) =
  match r.Runner.exec with
  | Runner.Verdict v -> Fmt.str "%a" Oracle.pp v
  | Runner.Rejected m -> "rejected: " ^ m
  | Runner.Skipped m -> "skipped: " ^ m

(* A sweep's observable output at one jobs value: the pretty summary
   plus, via on_report, every report serialized through the existing
   codecs (plan JSON + verdict text) in callback order. *)
let sweep_observation ~jobs ~seed ~runs =
  let lines = ref [] in
  let on_report (r : Runner.report) =
    lines :=
      Printf.sprintf "%s %s %s"
        (Runner.protocol_name r.Runner.protocol)
        (Plan.to_string r.Runner.plan)
        (verdict_string r)
      :: !lines
  in
  let summary = Runner.sweep ~on_report ~jobs ~seed ~runs () in
  (Fmt.str "%a" Runner.pp_summary summary, List.rev !lines)

let qcheck_sweep_jobs_equivalent =
  QCheck.Test.make ~name:"chaos sweep is byte-identical for every --jobs" ~count:2
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1000))
    (fun seed ->
      let runs = 2 in
      let expected = sweep_observation ~jobs:1 ~seed ~runs in
      List.for_all (fun jobs -> sweep_observation ~jobs ~seed ~runs = expected) [ 2; 3; 8 ])

(* --- model checker: parallel == sequential ----------------------------- *)

let check_cases () =
  let graph_of n shape =
    let ids = S.identities ~ns:"par-test" n in
    let chains = List.init n (Printf.sprintf "c%d") in
    match shape with
    | `Two_party -> S.two_party_graph ~chain1:"c0" ~chain2:"c1" ids ~timestamp:1.0
    | `Ring -> S.ring_graph ~chains ids ~timestamp:1.0
    | `Cyclic -> S.cyclic_graph ~chains ids ~timestamp:1.0
  in
  [
    (MC.Herlihy, graph_of 2 `Two_party);
    (MC.Nolan, graph_of 2 `Two_party);
    (MC.Ac3wn, graph_of 3 `Ring);
    (MC.Ac3wn, graph_of 3 `Cyclic);
  ]

let report_string (r : MC.report) =
  let diags =
    String.concat "\n" (List.map (fun d -> Json.to_string (Ac3_verify.Diagnostic.to_json d)) r.MC.diagnostics)
  in
  Fmt.str "%s %d violations %a@.%s" (MC.protocol_name r.MC.protocol)
    (List.length r.MC.violations) MC.pp_stats r.MC.stats diags

let test_check_jobs_equivalent () =
  let run jobs =
    Pool.map ~jobs
      (fun (protocol, graph) ->
        report_string (MC.check ~config:MC.default_config ~protocol ~graph))
      (check_cases ())
  in
  let expected = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "diagnostics identical at jobs %d" jobs)
        expected (run jobs))
    [ 2; 3; 8 ]

(* --- corpus replays under every jobs value ----------------------------- *)

let corpus_dir () =
  if Sys.file_exists "chaos_corpus" then "chaos_corpus" else Filename.concat "test" "chaos_corpus"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_corpus_replays_all_jobs () =
  let files =
    Sys.readdir (corpus_dir ()) |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (Filename.concat (corpus_dir ()))
  in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun path ->
      let repro = Repro.of_string (read_file path) in
      let render jobs =
        Repro.replay ~jobs repro
        |> List.map (fun r -> Fmt.str "%a" Repro.pp_replay_result r)
      in
      let expected = render 1 in
      Alcotest.(check bool) (path ^ " replays ok") true (Repro.replay_ok (Repro.replay repro));
      List.iter
        (fun jobs ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s identical at jobs %d" path jobs)
            expected (render jobs))
        [ 2; 3; 8 ])
    files

(* --- shrinking: parallel == sequential --------------------------------- *)

(* Seed 92 is the known Herlihy violation used by test_chaos; the
   shrink trajectory (logged steps) and result must not depend on
   jobs, because candidate evaluation keeps first-by-index semantics. *)
let test_shrink_jobs_equivalent () =
  let spec, plan = Plan.sample ~seed:92 () in
  let run jobs =
    let steps = ref [] in
    let log line = steps := line :: !steps in
    let shrunk = Shrink.shrink ~log ~jobs ~spec ~protocol:Runner.P_herlihy plan in
    (Plan.to_string shrunk, List.rev !steps)
  in
  let expected = run 1 in
  let plan_s, _ = expected in
  Alcotest.(check bool) "shrunk to something smaller" true
    (String.length plan_s < String.length (Plan.to_string plan));
  List.iter
    (fun jobs ->
      let got = run jobs in
      Alcotest.(check (pair string (list string)))
        (Printf.sprintf "shrink trajectory identical at jobs %d" jobs)
        expected got)
    [ 4; 8 ]

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "empty and single task" `Quick test_empty_and_single;
          Alcotest.test_case "order preserved under skewed work" `Quick test_order_preserved;
          Alcotest.test_case "map and mapi" `Quick test_map_mapi;
          Alcotest.test_case "lowest-index exception re-raised" `Quick test_exception_policy;
          Alcotest.test_case "nested use rejected" `Quick test_nested_rejected;
          Alcotest.test_case "reusable after failures" `Quick test_pool_reusable;
          Alcotest.test_case "first_success = find_map" `Quick test_first_success;
        ] );
      ( "seeds",
        [ Alcotest.test_case "split_seed: stable, positive, collision-free" `Quick test_split_seed ] );
      ( "keys",
        [ Alcotest.test_case "concurrent create never collides" `Quick test_keys_concurrent_create ]
      );
      ( "sanitize",
        [
          Alcotest.test_case "isolated tasks pass at every jobs value" `Quick test_sanitize_clean;
          Alcotest.test_case "reintroduced keys race is flagged" `Quick
            test_sanitize_catches_keys_race;
          Alcotest.test_case "check is opt-in" `Quick test_sanitize_opt_in;
          Alcotest.test_case "sanitized sweep stays clean" `Quick test_sanitize_sweep_clean;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest ~long:true qcheck_sweep_jobs_equivalent;
          Alcotest.test_case "model checks identical across jobs" `Slow test_check_jobs_equivalent;
          Alcotest.test_case "corpus replays identical across jobs" `Slow
            test_corpus_replays_all_jobs;
          Alcotest.test_case "shrink trajectory identical across jobs" `Slow
            test_shrink_jobs_equivalent;
        ] );
    ]
