(* Tests for the discrete-event simulation substrate. *)

open Ac3_sim

(* --- Rng -------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int64 a) in
  let ys = List.init 10 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_int_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let r = Rng.create 2 in
  for _ = 1 to 1000 do
    let v = Rng.float r 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.5)
  done

let test_rng_exponential_mean () =
  let r = Rng.create 3 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.exponential r ~mean:5.0
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean close to 5" true (abs_float (mean -. 5.0) < 0.25)

let test_rng_bernoulli_rate () =
  let r = Rng.create 4 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate close to 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_rng_bytes_length () =
  let r = Rng.create 5 in
  List.iter
    (fun n -> Alcotest.(check int) "length" n (Bytes.length (Rng.bytes r n)))
    [ 0; 1; 7; 8; 9; 32; 100 ]

let test_rng_shuffle_permutation () =
  let r = Rng.create 6 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* --- Engine ----------------------------------------------------------- *)

let noop () = ()

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun () -> log := "b" :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:3.0 (fun () -> log := "c" :: !log);
  ignore (Engine.run e);
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "scheduling order at equal time" (List.init 10 Fun.id)
    (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let times = ref [] in
  Engine.schedule e ~delay:1.0 (fun () ->
      times := Engine.now e :: !times;
      Engine.schedule e ~delay:1.5 (fun () -> times := Engine.now e :: !times));
  ignore (Engine.run e);
  Alcotest.(check (list (float 1e-9))) "nested times" [ 1.0; 2.5 ] (List.rev !times)

let test_engine_horizon () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~delay:1.0 (fun () -> incr fired);
  Engine.schedule e ~delay:5.0 (fun () -> incr fired);
  ignore (Engine.run ~until:2.0 e);
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock at horizon" 2.0 (Engine.now e);
  ignore (Engine.run e);
  Alcotest.(check int) "second fires later" 2 !fired

let test_engine_past_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1.0 noop;
  ignore (Engine.run e);
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Engine.schedule_at: time 0.500000 is in the past (now 1.000000)")
    (fun () -> Engine.schedule_at e ~time:0.5 noop)

let test_engine_repeating () =
  let e = Engine.create () in
  let count = ref 0 in
  let live = ref true in
  Engine.schedule_repeating e ~while_:(fun () -> !live) ~first:1.0 ~every:1.0 (fun () ->
      incr count);
  ignore (Engine.run ~until:5.5 e);
  live := false;
  ignore (Engine.run ~until:10.0 e);
  Alcotest.(check int) "fired while the condition held" 5 !count

(* The clock advances to the horizon when the queue drains early — even
   when the queue was empty to begin with — so back-to-back run ~until
   calls see monotone time. *)
let test_engine_until_advances_drained_clock () =
  let e = Engine.create () in
  Alcotest.(check int) "nothing to run" 0 (Engine.run ~until:5.0 e);
  Alcotest.(check (float 1e-9)) "clock at horizon" 5.0 (Engine.now e);
  (* schedule_at a pre-horizon time is now in the past *)
  (match Engine.schedule_at e ~time:4.0 noop with
  | () -> Alcotest.fail "pre-horizon schedule_at should be rejected"
  | exception Invalid_argument _ -> ());
  ignore (Engine.run ~until:3.0 e);
  Alcotest.(check (float 1e-9)) "clock never rewinds" 5.0 (Engine.now e)

(* A stop condition ends the run without advancing to the horizon: the
   simulation may resume from where it actually stopped. *)
let test_engine_stop_keeps_clock () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~delay:1.0 (fun () -> fired := Engine.now e :: !fired);
  Engine.schedule e ~delay:2.0 (fun () -> fired := Engine.now e :: !fired);
  let executed = Engine.run ~until:10.0 ~stop:(fun () -> !fired <> []) e in
  Alcotest.(check int) "stopped after one event" 1 executed;
  Alcotest.(check (float 1e-9)) "clock stays at the stop point" 1.0 (Engine.now e);
  Alcotest.(check int) "resumption runs the second event" 1 (Engine.run e);
  Alcotest.(check (list (float 1e-9))) "each at its own time" [ 1.0; 2.0 ] (List.rev !fired)

let test_engine_schedule_boundaries () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1.0 noop;
  ignore (Engine.run e);
  (match Engine.schedule e ~delay:(-0.5) noop with
  | () -> Alcotest.fail "negative delay should be rejected"
  | exception Invalid_argument _ -> ());
  (* exactly-now is allowed: the event fires at the current instant *)
  let fired = ref false in
  Engine.schedule_at e ~time:(Engine.now e) (fun () -> fired := true);
  ignore (Engine.run e);
  Alcotest.(check bool) "time = now fires" true !fired;
  Alcotest.(check (float 1e-9)) "clock unchanged" 1.0 (Engine.now e)

(* Repeated bursts recycle the free slots; every event fires once. *)
let test_engine_free_list_reuse_at_scale () =
  let e = Engine.create () in
  let fired = ref 0 in
  for _ = 1 to 500 do
    for i = 0 to 7 do
      Engine.schedule e ~delay:(float_of_int i) (fun () -> incr fired)
    done;
    ignore (Engine.run e)
  done;
  Alcotest.(check int) "every event fired" (500 * 8) !fired;
  Alcotest.(check int) "executed counter agrees" (500 * 8) (Engine.executed_events e)

(* Once the queue has grown, scheduling and dispatching an event
   allocates only the boxed float of the new clock value (2 words); the
   bound of 4 leaves room for one more. *)
let test_engine_allocation () =
  let e = Engine.create () in
  let n = 100_000 in
  let burst () =
    for _ = 1 to n do
      Engine.schedule e ~delay:1.0 noop
    done;
    ignore (Engine.run e)
  in
  burst ();
  let before = Gc.minor_words () in
  burst ();
  let per_event = (Gc.minor_words () -. before) /. float_of_int n in
  if per_event > 4.0 then Alcotest.failf "%.2f minor words per event, over 4" per_event

(* A repeating timer re-queues the one tick closure it built when it was
   scheduled, so once the queue has grown a tick allocates only what any
   dispatch does, the boxed clock value (2 words). Building a closure
   per re-arm made it 9. The bound of 4 is the dispatch gate's. *)
let test_engine_repeating_allocation () =
  let e = Engine.create () in
  let ticks = ref 0 in
  for i = 0 to 7 do
    Engine.schedule_repeating e
      ~while_:(fun () -> true)
      ~first:(0.1 *. float_of_int i)
      ~every:1.0
      (fun () -> incr ticks)
  done;
  Engine.run_until e 100.0;
  let before = Gc.minor_words () and ticked = !ticks in
  Engine.run_until e 20_100.0;
  let per_tick = (Gc.minor_words () -. before) /. float_of_int (!ticks - ticked) in
  Alcotest.(check int) "eight ticks a second" (8 * 20_000) (!ticks - ticked);
  if per_tick > 4.0 then Alcotest.failf "%.2f minor words per repeating tick, over 4" per_tick

(* --- Trace ------------------------------------------------------------ *)

let test_trace_find_first_occurrence () =
  (* Records live in arrival order: [time_of] must return the *first*
     occurrence of an event — under repeated lookups (chaos runs make
     traces hot) and growth across the internal array-doubling
     boundary. *)
  let tr = Trace.create () in
  for i = 0 to 99 do
    Trace.record tr ~time:(float_of_int i) ~attrs:[ ("n", string_of_int i) ] (`Tick (i mod 2))
  done;
  Alcotest.(check int) "length" 100 (List.length (Trace.records tr));
  (match Trace.records tr with
  | [] -> Alcotest.fail "no records"
  | r :: _ ->
      Alcotest.(check (float 1e-9)) "first time" 0.0 r.Trace.time;
      Alcotest.(check (list (pair string string))) "first attrs" [ ("n", "0") ] r.Trace.attrs);
  Alcotest.(check (option (float 1e-9))) "time_of = first" (Some 0.0) (Trace.time_of tr (`Tick 0));
  Alcotest.(check (option (float 1e-9))) "time_of matches the payload" (Some 1.0)
    (Trace.time_of tr (`Tick 1));
  Alcotest.(check (option (float 1e-9))) "missing" None (Trace.time_of tr (`Tick 2));
  (* Chronological order is preserved end to end. *)
  let times = List.map (fun r -> r.Trace.time) (Trace.records tr) in
  Alcotest.(check (list (float 1e-9))) "arrival order" (List.init 100 float_of_int) times

(* --- Stats ------------------------------------------------------------ *)

let test_stats_basic () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.maximum xs);
  Alcotest.(check (float 1e-9)) "p50" 3.0 (Stats.percentile xs 50.0)

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p95" 95.0 (Stats.percentile xs 95.0);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Stats.percentile xs 99.0)

(* Regression: a NaN in the sample list used to be sorted with
   polymorphic [compare], leaving the array in an unspecified order and
   the percentiles garbage. The policy is now to drop NaNs from order
   statistics, while [mean] propagates them. *)
let test_stats_nan_policy () =
  let xs = [ 5.0; nan; 1.0; 4.0; nan; 2.0; 3.0 ] in
  Alcotest.(check (float 1e-9)) "p50 ignores NaNs" 3.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p99 ignores NaNs" 5.0 (Stats.percentile xs 99.0);
  Alcotest.(check (float 1e-9)) "p0 ignores NaNs" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "max ignores NaNs" 5.0 (Stats.maximum xs);
  Alcotest.(check bool) "mean propagates NaN" true (Float.is_nan (Stats.mean xs));
  Alcotest.(check bool) "all-NaN -> NaN" true (Float.is_nan (Stats.percentile [ nan; nan ] 50.0));
  Alcotest.(check bool) "empty -> NaN" true (Float.is_nan (Stats.maximum []))

let qcheck_stats_mean_bounds =
  QCheck.Test.make ~name:"mean lies within min..max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let m = Stats.mean xs in
      m >= Stats.percentile xs 0.0 -. 1e-9 && m <= Stats.maximum xs +. 1e-9)

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
          Alcotest.test_case "bytes length" `Quick test_rng_bytes_length;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_engine_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "horizon" `Quick test_engine_horizon;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "repeating" `Quick test_engine_repeating;
          Alcotest.test_case "until advances drained clock" `Quick
            test_engine_until_advances_drained_clock;
          Alcotest.test_case "stop keeps clock" `Quick test_engine_stop_keeps_clock;
          Alcotest.test_case "schedule boundaries" `Quick test_engine_schedule_boundaries;
          Alcotest.test_case "free-list reuse at scale" `Quick test_engine_free_list_reuse_at_scale;
          Alcotest.test_case "allocation per event" `Quick test_engine_allocation;
          Alcotest.test_case "allocation per repeating tick" `Quick test_engine_repeating_allocation;
        ] );
      ( "trace",
        [
          Alcotest.test_case "find returns first occurrence" `Quick
            test_trace_find_first_occurrence;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "NaN drop policy" `Quick test_stats_nan_policy;
          QCheck_alcotest.to_alcotest qcheck_stats_mean_bounds;
        ] );
    ]
