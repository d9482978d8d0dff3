(* Index-sorted event arena (see the interface for the design notes).

   Slot state lives in parallel arrays:
     times.(s), seqs.(s), cbs.(s)  — the event
     gens.(s)                      — generation, bumped on release
     flags.(s)                     — 1 = cancelled
   and the binary min-heap [heap.(0 .. hsize-1)] stores slot indices
   ordered by (times, seqs). Free slots form a stack in [free].

   All index arithmetic stays inside the arrays by construction (heap
   entries and free-list entries are always valid slots), so the hot
   paths use unsafe accessors. *)

let noop () = ()

type handle = int

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable cbs : (unit -> unit) array;
  mutable gens : int array;
  mutable flags : Bytes.t;
  mutable heap : int array;
  mutable hsize : int;
  mutable free : int array;
  mutable nfree : int;
  mutable slots : int; (* high-water mark: slots 0..slots-1 initialized *)
}

(* Handles pack the slot in the low 30 bits and the generation above;
   30 bits of slots is far beyond any queue this simulator builds. *)
let slot_bits = 30

let slot_mask = (1 lsl slot_bits) - 1

let pack ~slot ~gen = slot lor (gen lsl slot_bits)

let create ?(capacity = 16) () =
  let cap = max 16 capacity in
  {
    times = Array.make cap 0.0;
    seqs = Array.make cap 0;
    cbs = Array.make cap noop;
    gens = Array.make cap 0;
    flags = Bytes.make cap '\000';
    heap = Array.make cap 0;
    hsize = 0;
    free = Array.make cap 0;
    nfree = 0;
    slots = 0;
  }

let size t = t.hsize

let is_empty t = t.hsize = 0

let live_count t =
  let live = ref 0 in
  for i = 0 to t.hsize - 1 do
    let s = Array.unsafe_get t.heap i in
    if Bytes.unsafe_get t.flags s = '\000' then incr live
  done;
  !live

(* (time, seq) lexicographic order between slots. Float.compare keeps
   the order total even for NaN timestamps, matching the boxed heap. *)
let less t a b =
  let c = Float.compare (Array.unsafe_get t.times a) (Array.unsafe_get t.times b) in
  if c <> 0 then c < 0 else Array.unsafe_get t.seqs a < Array.unsafe_get t.seqs b

let grow_slots t =
  let cap = Array.length t.times in
  let ncap = 2 * cap in
  let times = Array.make ncap 0.0 in
  Array.blit t.times 0 times 0 cap;
  t.times <- times;
  let seqs = Array.make ncap 0 in
  Array.blit t.seqs 0 seqs 0 cap;
  t.seqs <- seqs;
  let cbs = Array.make ncap noop in
  Array.blit t.cbs 0 cbs 0 cap;
  t.cbs <- cbs;
  let gens = Array.make ncap 0 in
  Array.blit t.gens 0 gens 0 cap;
  t.gens <- gens;
  let flags = Bytes.make ncap '\000' in
  Bytes.blit t.flags 0 flags 0 cap;
  t.flags <- flags;
  let heap = Array.make ncap 0 in
  Array.blit t.heap 0 heap 0 t.hsize;
  t.heap <- heap;
  let free = Array.make ncap 0 in
  Array.blit t.free 0 free 0 t.nfree;
  t.free <- free

let alloc_slot t =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    Array.unsafe_get t.free t.nfree
  end
  else begin
    if t.slots = Array.length t.times then grow_slots t;
    let s = t.slots in
    t.slots <- s + 1;
    s
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let si = Array.unsafe_get t.heap i and sp = Array.unsafe_get t.heap parent in
    if less t si sp then begin
      Array.unsafe_set t.heap i sp;
      Array.unsafe_set t.heap parent si;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.hsize && less t (Array.unsafe_get t.heap l) (Array.unsafe_get t.heap !smallest) then
    smallest := l;
  if r < t.hsize && less t (Array.unsafe_get t.heap r) (Array.unsafe_get t.heap !smallest) then
    smallest := r;
  if !smallest <> i then begin
    let tmp = Array.unsafe_get t.heap i in
    Array.unsafe_set t.heap i (Array.unsafe_get t.heap !smallest);
    Array.unsafe_set t.heap !smallest tmp;
    sift_down t !smallest
  end

let add t ~time ~seq callback =
  let s = alloc_slot t in
  Array.unsafe_set t.times s time;
  Array.unsafe_set t.seqs s seq;
  Array.unsafe_set t.cbs s callback;
  Bytes.unsafe_set t.flags s '\000';
  Array.unsafe_set t.heap t.hsize s;
  t.hsize <- t.hsize + 1;
  sift_up t (t.hsize - 1);
  pack ~slot:s ~gen:(Array.unsafe_get t.gens s)

let cancel t handle =
  let s = handle land slot_mask in
  if s < t.slots && Array.unsafe_get t.gens s = handle lsr slot_bits then
    Bytes.unsafe_set t.flags s '\001'

let is_cancelled t handle =
  let s = handle land slot_mask in
  s < t.slots
  && Array.unsafe_get t.gens s = handle lsr slot_bits
  && Bytes.unsafe_get t.flags s <> '\000'

let min_time t = Array.unsafe_get t.times (Array.unsafe_get t.heap 0)

let pop_min t =
  let top = Array.unsafe_get t.heap 0 in
  t.hsize <- t.hsize - 1;
  if t.hsize > 0 then begin
    Array.unsafe_set t.heap 0 (Array.unsafe_get t.heap t.hsize);
    sift_down t 0
  end;
  top

let slot_time t s = Array.unsafe_get t.times s

let slot_cancelled t s = Bytes.unsafe_get t.flags s <> '\000'

let slot_callback t s = Array.unsafe_get t.cbs s

let release t s =
  Array.unsafe_set t.gens s (Array.unsafe_get t.gens s + 1);
  Array.unsafe_set t.cbs s noop;
  Bytes.unsafe_set t.flags s '\000';
  Array.unsafe_set t.free t.nfree s;
  t.nfree <- t.nfree + 1
