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

(* --- Heap ------------------------------------------------------------- *)

let test_heap_sorts () =
  let h = Heap.create compare in
  let input = [ 5; 3; 9; 1; 7; 2; 8; 0; 4; 6 ] in
  List.iter (Heap.push h) input;
  Alcotest.(check (list int)) "ascending" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (Heap.to_list h)

let test_heap_peek_pop () =
  let h = Heap.create compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h 3;
  Heap.push h 1;
  Alcotest.(check (option int)) "peek" (Some 1) (Heap.peek h);
  Alcotest.(check (option int)) "pop" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "pop" (Some 3) (Heap.pop h);
  Alcotest.(check (option int)) "drained" None (Heap.pop h)

let test_heap_random_qcheck =
  QCheck.Test.make ~name:"heap drains any list sorted" ~count:200
    QCheck.(list int)
    (fun l ->
      let h = Heap.create compare in
      List.iter (Heap.push h) l;
      Heap.to_list h = List.sort compare l)

(* iter visits every element exactly once (in arbitrary order) and,
   unlike to_list, does not drain the heap. *)
let test_heap_iter_nondestructive () =
  let h = Heap.create compare in
  let input = [ 5; 3; 9; 1; 7 ] in
  List.iter (Heap.push h) input;
  let seen = ref [] in
  Heap.iter h (fun x -> seen := x :: !seen);
  Alcotest.(check (list int)) "visits all elements" (List.sort compare input)
    (List.sort compare !seen);
  Alcotest.(check int) "heap untouched" (List.length input) (Heap.length h);
  Alcotest.(check (list int)) "still drains sorted" (List.sort compare input) (Heap.to_list h)

let test_heap_iter_empty () =
  let h = Heap.create compare in
  Heap.iter h (fun (_ : int) -> Alcotest.fail "iter on empty heap called f");
  (* a popped-to-empty heap must not revisit stale slots *)
  Heap.push h 1;
  ignore (Heap.pop h);
  Heap.iter h (fun (_ : int) -> Alcotest.fail "iter after drain called f")

(* --- Engine ----------------------------------------------------------- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> log := "b" :: !log));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log));
  ignore (Engine.schedule e ~delay:3.0 (fun () -> log := "c" :: !log));
  ignore (Engine.run e);
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log))
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "scheduling order at equal time" (List.init 10 Fun.id)
    (List.rev !log)

let test_engine_cancellation () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel h;
  ignore (Engine.run e);
  Alcotest.(check bool) "cancelled event does not fire" false !fired

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         times := Engine.now e :: !times;
         ignore (Engine.schedule e ~delay:1.5 (fun () -> times := Engine.now e :: !times))));
  ignore (Engine.run e);
  Alcotest.(check (list (float 1e-9))) "nested times" [ 1.0; 2.5 ] (List.rev !times)

let test_engine_horizon () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> incr fired));
  ignore (Engine.schedule e ~delay:5.0 (fun () -> incr fired));
  ignore (Engine.run ~until:2.0 e);
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock at horizon" 2.0 (Engine.now e);
  ignore (Engine.run e);
  Alcotest.(check int) "second fires later" 2 !fired

let test_engine_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> ()));
  ignore (Engine.run e);
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Engine.schedule_at: time 0.500000 is in the past (now 1.000000)")
    (fun () -> ignore (Engine.schedule_at e ~time:0.5 (fun () -> ())))

let test_engine_repeating () =
  let e = Engine.create () in
  let count = ref 0 in
  let stop = Engine.schedule_repeating e ~first:1.0 ~every:1.0 (fun () -> incr count) in
  ignore (Engine.run ~until:5.5 e);
  stop ();
  ignore (Engine.run ~until:10.0 e);
  Alcotest.(check int) "fired until stopped" 5 !count

(* Cancelled events stay queued until their timestamp but are not
   pending work: pending_events must not count them, and running past
   them must not execute them. *)
let test_engine_pending_excludes_cancelled () =
  let e = Engine.create () in
  let fired = ref 0 in
  let h1 = Engine.schedule e ~delay:1.0 (fun () -> incr fired) in
  let _h2 = Engine.schedule e ~delay:2.0 (fun () -> incr fired) in
  let h3 = Engine.schedule e ~delay:3.0 (fun () -> incr fired) in
  Alcotest.(check int) "three pending" 3 (Engine.pending_events e);
  Engine.cancel h1;
  Alcotest.(check int) "cancel drops one" 2 (Engine.pending_events e);
  Engine.cancel h1;
  Alcotest.(check int) "double cancel is idempotent" 2 (Engine.pending_events e);
  Engine.cancel h3;
  Alcotest.(check int) "one live event left" 1 (Engine.pending_events e);
  Alcotest.(check int) "only the live event runs" 1 (Engine.run e);
  Alcotest.(check int) "callback count agrees" 1 !fired;
  Alcotest.(check int) "drained" 0 (Engine.pending_events e)

(* FIFO order among equal timestamps must survive cancelling events
   interleaved with the survivors. *)
let test_engine_fifo_ties_with_cancellation () =
  let e = Engine.create () in
  let log = ref [] in
  let handles =
    List.init 6 (fun i -> Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log))
  in
  List.iteri (fun i h -> if i mod 2 = 1 then Engine.cancel h) handles;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "even slots fire in scheduling order" [ 0; 2; 4 ]
    (List.rev !log)

(* The clock advances to the horizon when the queue drains early — even
   when the queue was empty to begin with — so back-to-back run ~until
   calls see monotone time. *)
let test_engine_until_advances_drained_clock () =
  let e = Engine.create () in
  Alcotest.(check int) "nothing to run" 0 (Engine.run ~until:5.0 e);
  Alcotest.(check (float 1e-9)) "clock at horizon" 5.0 (Engine.now e);
  (* schedule_at a pre-horizon time is now in the past *)
  (match Engine.schedule_at e ~time:4.0 (fun () -> ()) with
  | _ -> Alcotest.fail "pre-horizon schedule_at should be rejected"
  | exception Invalid_argument _ -> ());
  ignore (Engine.run ~until:3.0 e);
  Alcotest.(check (float 1e-9)) "clock never rewinds" 5.0 (Engine.now e)

(* A stop condition ends the run without advancing to the horizon: the
   simulation may resume from where it actually stopped. *)
let test_engine_stop_keeps_clock () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> incr fired));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> incr fired));
  let executed = Engine.run ~until:10.0 ~stop:(fun () -> !fired >= 1) e in
  Alcotest.(check int) "stopped after one event" 1 executed;
  Alcotest.(check (float 1e-9)) "clock stays at the stop point" 1.0 (Engine.now e);
  Alcotest.(check int) "second event still pending" 1 (Engine.pending_events e);
  ignore (Engine.run e);
  Alcotest.(check int) "resumes to completion" 2 !fired

let test_engine_schedule_boundaries () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> ()));
  ignore (Engine.run e);
  (match Engine.schedule e ~delay:(-0.5) (fun () -> ()) with
  | _ -> Alcotest.fail "negative delay should be rejected"
  | exception Invalid_argument _ -> ());
  (* exactly-now is allowed: the event fires at the current instant *)
  let fired = ref false in
  ignore (Engine.schedule_at e ~time:(Engine.now e) (fun () -> fired := true));
  ignore (Engine.run e);
  Alcotest.(check bool) "time = now fires" true !fired;
  Alcotest.(check (float 1e-9)) "clock unchanged" 1.0 (Engine.now e)

(* --- Arena: slot recycling and stale handles ---------------------------- *)

module Arena = Ac3_sim.Arena

let test_arena_cancel_live () =
  let a = Arena.create () in
  let h = Arena.add a ~time:1.0 ~seq:0 (fun () -> ()) in
  Alcotest.(check bool) "not cancelled yet" false (Arena.is_cancelled a h);
  Arena.cancel a h;
  Alcotest.(check bool) "flagged" true (Arena.is_cancelled a h);
  Arena.cancel a h;
  Alcotest.(check bool) "idempotent" true (Arena.is_cancelled a h);
  Alcotest.(check int) "size counts cancelled events" 1 (Arena.size a);
  Alcotest.(check int) "live_count does not" 0 (Arena.live_count a)

let test_arena_stale_handle_inert () =
  let a = Arena.create ~capacity:2 () in
  let h1 = Arena.add a ~time:1.0 ~seq:0 (fun () -> ()) in
  let slot = Arena.pop_min a in
  Arena.release a slot;
  (* h1 is stale: its event was popped and the slot is on the free list. *)
  Alcotest.(check bool) "stale handle reads not-cancelled" false (Arena.is_cancelled a h1);
  (* The freed slot is recycled for the next event; the stale handle's
     generation no longer matches, so it cannot resurrect into cancelling
     the slot's new occupant. *)
  let h2 = Arena.add a ~time:2.0 ~seq:1 (fun () -> ()) in
  Arena.cancel a h1;
  Alcotest.(check bool) "stale cancel leaves the recycled slot alone" false
    (Arena.is_cancelled a h2);
  Alcotest.(check int) "new occupant still live" 1 (Arena.live_count a)

let test_arena_free_list_reuse () =
  (* Start at capacity 1 and run a thousand add/pop cycles with at most
     two events in flight: slots must recycle through the free list and
     pop order must stay (time, seq) throughout. *)
  let a = Arena.create ~capacity:1 () in
  let seq = ref 0 in
  let popped = ref [] in
  for round = 1 to 1000 do
    let t = float_of_int round in
    for _ = 1 to 2 do
      ignore (Arena.add a ~time:t ~seq:!seq (fun () -> ()) : Arena.handle);
      incr seq
    done;
    for _ = 1 to 2 do
      let s = Arena.pop_min a in
      popped := Arena.slot_time a s :: !popped;
      Arena.release a s
    done
  done;
  Alcotest.(check bool) "drained" true (Arena.is_empty a);
  let expect =
    List.concat_map
      (fun r ->
        let t = float_of_int (r + 1) in
        [ t; t ])
      (List.init 1000 Fun.id)
  in
  Alcotest.(check (list (float 1e-9))) "pop order over recycled slots" expect (List.rev !popped)

let test_arena_equal_time_tie_break_across_reuse () =
  (* Everything at one timestamp; an early event is cancelled, popped and
     its slot recycled for later sequence numbers. (time, seq) order must
     win over slot index. *)
  let a = Arena.create ~capacity:2 () in
  let log = ref [] in
  let ev k () = log := k :: !log in
  let h0 = Arena.add a ~time:5.0 ~seq:0 (ev 0) in
  ignore (Arena.add a ~time:5.0 ~seq:1 (ev 1) : Arena.handle);
  Arena.cancel a h0;
  let s = Arena.pop_min a in
  Alcotest.(check bool) "cancelled first-in pops first" true (Arena.slot_cancelled a s);
  Arena.release a s;
  ignore (Arena.add a ~time:5.0 ~seq:2 (ev 2) : Arena.handle);
  ignore (Arena.add a ~time:5.0 ~seq:3 (ev 3) : Arena.handle);
  while not (Arena.is_empty a) do
    let s = Arena.pop_min a in
    let cb = Arena.slot_callback a s in
    let cancelled = Arena.slot_cancelled a s in
    Arena.release a s;
    if not cancelled then cb ()
  done;
  Alcotest.(check (list int)) "seq order, not slot order" [ 1; 2; 3 ] (List.rev !log)

(* Regression caught by the differential harness (test_fast.ml): the
   handle's cancelled flag is sticky. The boxed-heap engine's handle WAS
   the event record, so [is_cancelled] stayed true after the cancelled
   event's timestamp passed; the arena reaps the slot at that point, and
   a generation-checked lookup alone would flip the answer to false. The
   engine keeps the bit on the handle so the historical observable
   survives slot recycling. *)
let test_engine_cancelled_flag_outlives_event () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel h;
  ignore (Engine.run e);
  Alcotest.(check bool) "did not fire" false !fired;
  Alcotest.(check bool) "flag survives past the event's timestamp" true (Engine.is_cancelled h);
  (* The reaped slot is recycled; a second cancel through the stale
     handle must not resurrect into cancelling the new occupant. *)
  let fired2 = ref false in
  let h2 = Engine.schedule e ~delay:1.0 (fun () -> fired2 := true) in
  Engine.cancel h;
  ignore (Engine.run e);
  Alcotest.(check bool) "recycled slot's event unaffected" true !fired2;
  Alcotest.(check bool) "new handle not cancelled" false (Engine.is_cancelled h2)

let test_engine_cancel_after_fire () =
  let e = Engine.create () in
  let h = Engine.schedule e ~delay:1.0 (fun () -> ()) in
  ignore (Engine.run e);
  Alcotest.(check bool) "fired event reads not-cancelled" false (Engine.is_cancelled h);
  (* Historical semantics: cancel after the fact still flags the handle. *)
  Engine.cancel h;
  Alcotest.(check bool) "cancel after fire flags the handle" true (Engine.is_cancelled h);
  (* ... without leaking into whatever reuses the slot. *)
  let fired = ref false in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> fired := true) : Engine.handle);
  ignore (Engine.run e);
  Alcotest.(check bool) "later event on the recycled slot fires" true !fired

let test_engine_free_list_reuse_at_scale () =
  let e = Engine.create () in
  let fired = ref 0 in
  for _ = 1 to 500 do
    let hs =
      List.init 8 (fun i -> Engine.schedule e ~delay:(float_of_int i) (fun () -> incr fired))
    in
    List.iteri (fun i h -> if i mod 2 = 0 then Engine.cancel h) hs;
    ignore (Engine.run e)
  done;
  Alcotest.(check int) "half the events fired" (500 * 4) !fired;
  Alcotest.(check int) "executed counter agrees" (500 * 4) (Engine.executed_events e);
  Alcotest.(check int) "queue drained" 0 (Engine.pending_events e)

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
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "peek/pop" `Quick test_heap_peek_pop;
          QCheck_alcotest.to_alcotest test_heap_random_qcheck;
          Alcotest.test_case "iter is non-destructive" `Quick test_heap_iter_nondestructive;
          Alcotest.test_case "iter skips empty and drained" `Quick test_heap_iter_empty;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_engine_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "cancellation" `Quick test_engine_cancellation;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "horizon" `Quick test_engine_horizon;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "repeating" `Quick test_engine_repeating;
          Alcotest.test_case "pending excludes cancelled" `Quick
            test_engine_pending_excludes_cancelled;
          Alcotest.test_case "FIFO ties with cancellation" `Quick
            test_engine_fifo_ties_with_cancellation;
          Alcotest.test_case "until advances drained clock" `Quick
            test_engine_until_advances_drained_clock;
          Alcotest.test_case "stop keeps clock" `Quick test_engine_stop_keeps_clock;
          Alcotest.test_case "schedule boundaries" `Quick test_engine_schedule_boundaries;
          Alcotest.test_case "cancelled flag outlives the event" `Quick
            test_engine_cancelled_flag_outlives_event;
          Alcotest.test_case "cancel after fire" `Quick test_engine_cancel_after_fire;
          Alcotest.test_case "free-list reuse at scale" `Quick test_engine_free_list_reuse_at_scale;
        ] );
      ( "arena",
        [
          Alcotest.test_case "cancel live handle" `Quick test_arena_cancel_live;
          Alcotest.test_case "stale handle is inert" `Quick test_arena_stale_handle_inert;
          Alcotest.test_case "free-list reuse" `Quick test_arena_free_list_reuse;
          Alcotest.test_case "equal-time tie-break across reuse" `Quick
            test_arena_equal_time_tie_break_across_reuse;
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
