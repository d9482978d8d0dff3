(* Discrete-event simulation engine.

   The engine owns a virtual clock and a priority queue of pending events.
   Events scheduled for the same instant fire in scheduling order (ties are
   broken by a monotonically increasing sequence number), which keeps runs
   deterministic. Callbacks may schedule further events.

   The queue is an index-sorted arena (Arena): timestamps in a
   flat unboxed float array, slot indices in the heap, freed slots
   recycled through a free list. The dispatch loop moves integers only —
   no event records, no options — which matters because every layer of
   the simulator (networks, miners, protocols, chaos fault plans) funnels
   through this loop. Observable semantics are identical to the boxed
   heap this replaces; test/test_fast.ml diffs the two implementations
   event by event. *)

type t = {
  mutable now : float;
  mutable next_seq : int;
  queue : Arena.t;
  mutable executed : int;
}

(* A handle pairs the arena's packed (slot, generation) id with the
   owning arena so [cancel] keeps its engine-free signature. Generations
   make stale handles inert: once an event fires or is reaped, its old
   handle can never touch the slot's next occupant.

   [hcancelled] is the handle's own sticky record of [cancel] having
   been called. The boxed-heap engine's handle WAS the event record, so
   its cancelled flag outlived the event's stay in the queue;
   [Arena.is_cancelled] instead reads false once the slot is reaped.
   Keeping the bit here preserves the historical observable —
   [is_cancelled] means "was cancel ever called on this handle" — which
   the differential harness checks against the reference engine. *)
type handle = { harena : Arena.t; hid : Arena.handle; mutable hcancelled : bool }

let create () = { now = 0.0; next_seq = 0; queue = Arena.create (); executed = 0 }

let now t = t.now

let executed_events t = t.executed

(* Cancelled events stay queued until their timestamp (cancel only
   flips a flag), but they are not pending work — don't count them. *)
let pending_events t = Arena.live_count t.queue

let schedule_at t ~time callback =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %.6f is in the past (now %.6f)" time t.now);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  { harena = t.queue; hid = Arena.add t.queue ~time ~seq callback; hcancelled = false }

let schedule t ~delay callback =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.now +. delay) callback

let cancel handle =
  handle.hcancelled <- true;
  Arena.cancel handle.harena handle.hid

let is_cancelled handle = handle.hcancelled

(* Run until the queue drains, the horizon is reached or [stop] returns
   true. Returns the number of events executed during this call. *)
let run ?(until = infinity) ?stop t =
  let should_stop () = match stop with None -> false | Some f -> f () in
  let q = t.queue in
  let count = ref 0 in
  let rec loop () =
    if should_stop () then ()
    else if Arena.is_empty q then ()
    else if Arena.min_time q > until then ()
    else begin
      let slot = Arena.pop_min q in
      let cancelled = Arena.slot_cancelled q slot in
      let time = Arena.slot_time q slot in
      let cb = Arena.slot_callback q slot in
      Arena.release q slot;
      if not cancelled then begin
        t.now <- time;
        incr count;
        t.executed <- t.executed + 1;
        cb ()
      end;
      loop ()
    end
  in
  loop ();
  (* Advance the clock to the horizon if the queue drained early (but not
     when the stop condition ended the run), so that back-to-back
     [run ~until] calls observe monotone time. *)
  if (not (should_stop ())) && until < infinity && t.now < until then t.now <- until;
  !count

let run_until t horizon = ignore (run ~until:horizon t)

(* Repeating event: reschedules itself every [every] until [cancel] is
   called on the returned handle or [while_] turns false. *)
let schedule_repeating ?while_ t ~first ~every callback =
  let live = ref true in
  let keep_going () = !live && (match while_ with None -> true | Some f -> f ()) in
  let rec arm delay =
    ignore
      (schedule t ~delay (fun () ->
           if keep_going () then begin
             callback ();
             if keep_going () then arm every
           end))
  in
  arm first;
  fun () -> live := false
