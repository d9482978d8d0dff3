(** Index-sorted event arena: the allocation-free priority queue behind
    the simulation engine.

    Events live in flat parallel arrays (unboxed float timestamps, int
    sequence numbers, one closure slot each); the heap orders slot
    indices, not boxed records, so pushing and popping move only
    integers. Freed slots are recycled through a free list, and each
    slot carries a generation counter so a stale handle (an event that
    already fired or was reaped) can never touch the slot's next
    occupant.

    Ordering is (time, seq) lexicographic — [Float.compare] then
    [Int.compare] — exactly the boxed event heap's order, so dispatch
    order is bit-for-bit the same. *)

type t

(** Packed handle: slot index in the low bits, generation above. Stale
    handles are detected by generation mismatch. *)
type handle = int

val create : ?capacity:int -> unit -> t

(** Events currently queued, cancelled ones included. *)
val size : t -> int

val is_empty : t -> bool

(** Queued events that are not cancelled. O(size). *)
val live_count : t -> int

(** Insert an event. [seq] must be strictly increasing across calls for
    the FIFO-at-equal-time guarantee to hold (the engine's sequence
    counter provides this). *)
val add : t -> time:float -> seq:int -> (unit -> unit) -> handle

(** Flag an event as cancelled. No-op on a stale handle: once the event
    fires or is reaped, its slot may be recycled and the old handle can
    never cancel the new occupant. *)
val cancel : t -> handle -> unit

(** [true] iff the handle is current and its event is flagged. Stale
    handles read as [false] — the event is gone, not cancelled. *)
val is_cancelled : t -> handle -> bool

(** Timestamp of the earliest queued event. Undefined when empty. *)
val min_time : t -> float

(** Remove the earliest event and return its slot. The caller must read
    the slot with the accessors below and then [release] it before the
    next [add]/[pop_min]. Undefined when empty. *)
val pop_min : t -> int

val slot_time : t -> int -> float

val slot_cancelled : t -> int -> bool

val slot_callback : t -> int -> unit -> unit

(** Recycle a popped slot: bump its generation, drop the callback
    reference, push it on the free list. *)
val release : t -> int -> unit
