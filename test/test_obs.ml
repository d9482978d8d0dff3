(* ac3_obs tests: registry semantics (dedup, kind conflicts, disabled
   mode), histogram edge policy (closed top bucket, counted
   under/overflow and NaNs), merge determinism under --jobs (per-task
   registries folded in task-index order must be byte-identical to the
   sequential registry), span nesting and trace-derived phases, and the
   instrumentation no-perturbation contract: a chaos sweep's summary is
   identical with instrumentation on and off, and its metrics JSON is
   identical for every jobs value. *)

module Metrics = Ac3_obs.Metrics
module Span = Ac3_obs.Span
module Obs = Ac3_obs.Obs
module Json = Ac3_crypto.Codec.Json
module Pool = Ac3_par.Pool
module Runner = Ac3_chaos.Runner
module Trace = Ac3_sim.Trace

(* --- registry basics --------------------------------------------------- *)

let test_counter_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a.b.c" in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Metrics.counter_value c);
  (* same (name, labels) -> same instrument, label order irrelevant *)
  let c1 = Metrics.counter m ~labels:[ ("x", "1"); ("y", "2") ] "lbl" in
  let c2 = Metrics.counter m ~labels:[ ("y", "2"); ("x", "1") ] "lbl" in
  Metrics.incr c1;
  Alcotest.(check int) "label order irrelevant" 1 (Metrics.counter_value c2);
  (* distinct labels -> distinct instrument *)
  let c3 = Metrics.counter m ~labels:[ ("x", "9") ] "lbl" in
  Alcotest.(check int) "distinct labels distinct" 0 (Metrics.counter_value c3);
  Alcotest.(check int) "size counts instruments" 3 (Metrics.size m);
  match Metrics.add c (-1) with
  | () -> Alcotest.fail "negative add should raise"
  | exception Invalid_argument _ -> ()

let test_gauge_basics () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "g" in
  Alcotest.(check (option (float 0.0))) "unset" None (Metrics.gauge_value g);
  Metrics.set g 2.5;
  Metrics.set g 3.5;
  Alcotest.(check (option (float 0.0))) "last write" (Some 3.5) (Metrics.gauge_value g)

let test_kind_conflict () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  (match Metrics.gauge m "x" with
  | _ -> Alcotest.fail "kind conflict should raise"
  | exception Invalid_argument _ -> ());
  match Metrics.histogram m ~lo:0.0 ~hi:1.0 ~buckets:2 "x" with
  | _ -> Alcotest.fail "kind conflict should raise"
  | exception Invalid_argument _ -> ()

(* x = hi must land in the last bucket, and out-of-range samples must
   be counted, not silently dropped. *)
let test_histogram_edges () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~lo:0.0 ~hi:10.0 ~buckets:10 "h" in
  List.iter (Metrics.observe h) [ 0.0; 5.0; 10.0; -1.0; 11.0; Float.nan ];
  let s = Metrics.hist_snapshot h in
  Alcotest.(check int) "x = lo in first bucket" 1 s.Metrics.counts.(0);
  Alcotest.(check int) "x = hi in last (closed) bucket" 1 s.Metrics.counts.(9);
  Alcotest.(check int) "underflow counted" 1 s.Metrics.underflow;
  Alcotest.(check int) "overflow counted" 1 s.Metrics.overflow;
  Alcotest.(check int) "NaN counted" 1 s.Metrics.nans;
  Alcotest.(check int) "in-range count" 3 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum of in-range" 15.0 s.Metrics.sum;
  (* layout mismatch on re-registration *)
  match Metrics.histogram m ~lo:0.0 ~hi:10.0 ~buckets:5 "h" with
  | _ -> Alcotest.fail "layout mismatch should raise"
  | exception Invalid_argument _ -> ()

let test_disabled_registry () =
  let m = Metrics.create ~enabled:false () in
  Alcotest.(check bool) "disabled" false (Metrics.is_enabled m);
  let c = Metrics.counter m "c" in
  Metrics.incr c;
  Metrics.add c 5;
  Alcotest.(check int) "counter inert" 0 (Metrics.counter_value c);
  let g = Metrics.gauge m "g" in
  Metrics.set g 1.0;
  Alcotest.(check (option (float 0.0))) "gauge inert" None (Metrics.gauge_value g);
  let h = Metrics.histogram m ~lo:0.0 ~hi:1.0 ~buckets:2 "h" in
  Metrics.observe h 0.5;
  Alcotest.(check int) "histogram inert" 0 (Metrics.hist_snapshot h).Metrics.count

(* --- JSON stability ---------------------------------------------------- *)

(* Two registries with the same contents recorded in different orders
   must render byte-identical JSON: sorted (name, labels) keys, fixed
   field order. *)
let test_json_stable_order () =
  let fill order =
    let m = Metrics.create () in
    List.iter
      (fun i ->
        match i with
        | 0 -> Metrics.incr (Metrics.counter m ~labels:[ ("chain", "btc") ] "z.last")
        | 1 -> Metrics.set (Metrics.gauge m "a.first") 7.0
        | 2 -> Metrics.observe (Metrics.histogram m ~lo:0.0 ~hi:4.0 ~buckets:4 "m.mid") 2.0
        | _ -> Metrics.incr (Metrics.counter m ~labels:[ ("chain", "eth") ] "z.last"))
      order;
    Json.to_string_pretty (Metrics.to_json m)
  in
  let a = fill [ 0; 1; 2; 3 ] and b = fill [ 3; 2; 1; 0 ] in
  Alcotest.(check string) "insertion order invisible" a b;
  (* keys are sorted in the rendering *)
  let idx s sub =
    match Astring.String.find_sub ~sub s with Some i -> i | None -> Alcotest.failf "%s missing" sub
  in
  Alcotest.(check bool) "a.first before m.mid" true (idx a "a.first" < idx a "m.mid");
  Alcotest.(check bool) "m.mid before z.last" true (idx a "m.mid" < idx a "z.last{chain=btc}");
  Alcotest.(check bool) "btc label before eth" true
    (idx a "z.last{chain=btc}" < idx a "z.last{chain=eth}")

(* --- merge determinism ------------------------------------------------- *)

(* Per-task registries merged in task-index order must equal the
   sequential registry, for every jobs value — the parallel-sweep
   determinism discipline in miniature. *)
let test_merge_jobs_determinism () =
  let record m task =
    let c = Metrics.counter m ~labels:[ ("task", string_of_int (task mod 3)) ] "work.done" in
    for _ = 0 to task mod 5 do
      Metrics.incr c
    done;
    Metrics.observe
      (Metrics.histogram m ~lo:0.0 ~hi:16.0 ~buckets:8 "work.cost")
      (float_of_int (task mod 17));
    Metrics.set (Metrics.gauge m "work.config") 4.0
  in
  let tasks = List.init 24 Fun.id in
  let sequential =
    let m = Metrics.create () in
    List.iter (record m) tasks;
    Json.to_string_pretty (Metrics.to_json m)
  in
  List.iter
    (fun jobs ->
      let per_task =
        Pool.map ~jobs
          (fun task ->
            let m = Metrics.create () in
            record m task;
            m)
          tasks
      in
      let merged = Metrics.create () in
      List.iter (fun m -> Metrics.merge_into ~into:merged m) per_task;
      Alcotest.(check string)
        (Printf.sprintf "merged JSON identical at jobs %d" jobs)
        sequential
        (Json.to_string_pretty (Metrics.to_json merged)))
    [ 1; 2; 4 ]

(* --- spans ------------------------------------------------------------- *)

let test_span_nesting () =
  let now = ref 0.0 in
  let t = Span.create ~clock:(fun () -> !now) () in
  let outer = Span.enter t "outer" in
  now := 1.0;
  let inner = Span.enter t ~attrs:[ ("k", "v") ] "inner" in
  now := 3.0;
  Span.exit t inner;
  now := 5.0;
  Span.exit t outer;
  (match Span.roots t with
  | [ r ] -> Alcotest.(check string) "one root" "outer" (Span.span_name r)
  | rs -> Alcotest.failf "expected 1 root, got %d" (List.length rs));
  let json = Json.to_string (Span.to_json t) in
  Alcotest.(check bool) "inner nested under outer" true
    (Astring.String.is_infix ~affix:"\"children\":[{\"name\":\"inner\"" json);
  let root = List.hd (Span.roots t) in
  Alcotest.(check (option (float 1e-9))) "outer duration" (Some 5.0) (Span.duration root)

let test_span_of_trace () =
  let trace = Trace.create () in
  let record time label = Trace.record trace ~time label in
  record 1.0 "deploy:0";
  record 2.0 "deploy:1";
  record 4.0 "redeem:0";
  record 6.0 "redeem:1";
  let t = Span.create ~clock:(fun () -> 0.0) () in
  Span.of_trace t
    ~phases:
      [
        { Span.phase = "deploy"; opens = "deploy:"; closes = [ "deploy:" ] };
        { Span.phase = "redeem"; opens = "redeem:"; closes = [ "redeem:" ] };
        { Span.phase = "refund"; opens = "refund:"; closes = [ "refund:" ] };
      ]
    trace;
  let names = List.map Span.span_name (Span.roots t) in
  Alcotest.(check (list string)) "recognized phases only" [ "deploy"; "redeem" ] names;
  List.iter2
    (fun span expected ->
      Alcotest.(check (option (float 1e-9))) "phase duration" (Some expected) (Span.duration span))
    (Span.roots t) [ 1.0; 2.0 ]

let test_span_disabled_and_import () =
  let off = Span.create ~enabled:false ~clock:(fun () -> 0.0) () in
  Span.with_span off "ignored" (fun () -> ());
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Span.roots off));
  let a = Span.create ~clock:(fun () -> 1.0) () in
  Span.with_span a "ran" (fun () -> ());
  let into = Span.create ~clock:(fun () -> 0.0) () in
  Span.import ~into a;
  Span.import ~into a;
  Alcotest.(check (list string))
    "import appends roots in order" [ "ran"; "ran" ]
    (List.map Span.span_name (Span.roots into))

(* --- no-perturbation and jobs-identity of the instrumented sweep ------- *)

let sweep_metrics_json ~jobs ~instrument =
  let summary = Runner.sweep ~jobs ~instrument ~seed:5 ~runs:2 () in
  ( Fmt.str "%a" Runner.pp_summary summary,
    Json.to_string_pretty (Metrics.to_json summary.Runner.obs.Obs.metrics) )

let test_sweep_instrument_no_perturbation () =
  let on_summary, on_json = sweep_metrics_json ~jobs:1 ~instrument:true in
  let off_summary, off_json = sweep_metrics_json ~jobs:1 ~instrument:false in
  Alcotest.(check string) "summary identical with instrumentation off" on_summary off_summary;
  Alcotest.(check bool) "instrumented registry is non-trivial" true
    (String.length on_json > String.length off_json)

let test_sweep_metrics_jobs_identical () =
  let expected = sweep_metrics_json ~jobs:1 ~instrument:true in
  List.iter
    (fun jobs ->
      Alcotest.(check (pair string string))
        (Printf.sprintf "summary and metrics JSON identical at jobs %d" jobs)
        expected
        (sweep_metrics_json ~jobs ~instrument:true))
    [ 2; 4 ]

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics and dedup" `Quick test_counter_basics;
          Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
          Alcotest.test_case "kind conflicts rejected" `Quick test_kind_conflict;
          Alcotest.test_case "histogram edge policy" `Quick test_histogram_edges;
          Alcotest.test_case "disabled registry is inert" `Quick test_disabled_registry;
          Alcotest.test_case "JSON key order stable" `Quick test_json_stable_order;
          Alcotest.test_case "merge determinism across jobs" `Quick test_merge_jobs_determinism;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and durations" `Quick test_span_nesting;
          Alcotest.test_case "phases derived from trace" `Quick test_span_of_trace;
          Alcotest.test_case "disabled and import" `Quick test_span_disabled_and_import;
        ] );
      ( "integration",
        [
          Alcotest.test_case "instrumentation never perturbs the sweep" `Slow
            test_sweep_instrument_no_perturbation;
          Alcotest.test_case "sweep metrics identical across jobs" `Slow
            test_sweep_metrics_jobs_identical;
        ] );
    ]
