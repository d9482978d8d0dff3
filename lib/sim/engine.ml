(* Discrete-event simulation engine.

   The engine owns a virtual clock and a priority queue of pending events.
   Events scheduled for the same instant fire in scheduling order (ties are
   broken by a monotonically increasing sequence number), which keeps runs
   deterministic. Callbacks may schedule further events.

   Every layer of the simulator (networks, miners, protocols, chaos fault
   plans) funnels through the dispatch loop, so the queue allocates
   nothing per event once it has grown. An event lives in a slot of three
   parallel arrays: [times] (a flat, unboxed float array), [seqs] and
   [cbs]. The binary min-heap [heap.(0 .. size-1)] orders slot indices by
   (time, seq); sifting moves those integers only, never a closure, so it
   pays no write barrier. The rest of [heap], [heap.(size ..)], is the
   stack of free slots: a pop leaves its slot right where the next push
   takes one from. All heap and free-stack entries are valid slots by
   construction, hence the unsafe accessors. *)

let noop () = ()

type t = {
  mutable now : float;
  mutable next_seq : int;
  mutable executed : int;
  mutable times : float array;
  mutable seqs : int array;
  mutable cbs : (unit -> unit) array;
  mutable heap : int array;
  mutable size : int;
}

let initial_capacity = 16

let create () =
  {
    now = 0.0;
    next_seq = 0;
    executed = 0;
    times = Array.make initial_capacity 0.0;
    seqs = Array.make initial_capacity 0;
    cbs = Array.make initial_capacity noop;
    heap = Array.init initial_capacity Fun.id;
    size = 0;
  }

let now t = t.now

let executed_events t = t.executed

(* Does the event at (time, seq) fire before slot [s]? Float.compare
   keeps the order total even for NaN timestamps. Inlined, like
   [schedule_at] into [schedule], so no float is boxed to make the call. *)
let[@inline] before t time seq s =
  let c = Float.compare time (Array.unsafe_get t.times s) in
  c < 0 || (c = 0 && seq < Array.unsafe_get t.seqs s)

(* Double every array; the new slots join the (empty) free stack. *)
let grow t =
  let cap = Array.length t.heap in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0.0;
  t.seqs <- extend t.seqs 0;
  t.cbs <- extend t.cbs noop;
  t.heap <- Array.init (2 * cap) (fun i -> if i < cap then t.heap.(i) else i)

let[@inline] schedule_at t ~time callback =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %.6f is in the past (now %.6f)" time t.now);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.size = Array.length t.heap then grow t;
  let heap = t.heap in
  let s = Array.unsafe_get heap t.size in
  Array.unsafe_set t.times s time;
  Array.unsafe_set t.seqs s seq;
  Array.unsafe_set t.cbs s callback;
  (* Sift up: move parents down into the hole until [s] fits. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && before t time seq (Array.unsafe_get heap ((!i - 1) / 2)) do
    let parent = (!i - 1) / 2 in
    Array.unsafe_set heap !i (Array.unsafe_get heap parent);
    i := parent
  done;
  Array.unsafe_set heap !i s

let schedule t ~delay callback =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.now +. delay) callback

(* Remove the earliest event's slot from the heap and push it on the
   free stack. Its fields stay readable until the next [schedule_at]. *)
let pop t =
  let heap = t.heap in
  let top = Array.unsafe_get heap 0 in
  let n = t.size - 1 in
  t.size <- n;
  let last = Array.unsafe_get heap n in
  Array.unsafe_set heap n top;
  (* Sift [last] down from the root into the hole; when the heap is now
     empty, this writes [top] back in place. *)
  let time = Array.unsafe_get t.times last and seq = Array.unsafe_get t.seqs last in
  let i = ref 0 and child = ref 1 in
  while !child < n do
    let l = !child in
    let c =
      if l + 1 < n then
        let r = Array.unsafe_get heap (l + 1) in
        if before t (Array.unsafe_get t.times r) (Array.unsafe_get t.seqs r)
             (Array.unsafe_get heap l)
        then l + 1
        else l
      else l
    in
    let sc = Array.unsafe_get heap c in
    if before t time seq sc then child := n
    else begin
      Array.unsafe_set heap !i sc;
      i := c;
      child := (2 * c) + 1
    end
  done;
  Array.unsafe_set heap !i last;
  top

(* Run until the queue drains, the horizon is reached or [stop] returns
   true. Returns the number of events executed during this call. *)
let run ?(until = infinity) ?stop t =
  let should_stop () = match stop with None -> false | Some f -> f () in
  let count = ref 0 in
  while
    (not (should_stop ()))
    && t.size > 0
    && not (Array.unsafe_get t.times (Array.unsafe_get t.heap 0) > until)
  do
    let s = pop t in
    let cb = Array.unsafe_get t.cbs s in
    (* Drop the free slot's reference so the closure can be collected. *)
    Array.unsafe_set t.cbs s noop;
    t.now <- Array.unsafe_get t.times s;
    incr count;
    t.executed <- t.executed + 1;
    cb ()
  done;
  (* Advance the clock to the horizon if the queue drained early (but not
     when the stop condition ended the run), so that back-to-back
     [run ~until] calls observe monotone time. *)
  if (not (should_stop ())) && until < infinity && t.now < until then t.now <- until;
  !count

let run_until t horizon = ignore (run ~until:horizon t)

(* One tick closure per timer, built here and re-queued as is: a re-arm
   allocates nothing once the queue has grown. *)
let schedule_repeating t ~while_ ~first ~every callback =
  let rec tick () =
    if while_ () then begin
      callback ();
      if while_ () then schedule t ~delay:every tick
    end
  in
  schedule t ~delay:first tick
