(** Array-backed binary min-heap. *)

type 'a t

(** [create compare] builds an empty heap ordered by [compare]. *)
val create : ('a -> 'a -> int) -> 'a t

(** Number of elements. *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push h x] inserts [x]. O(log n). *)
val push : 'a t -> 'a -> unit

(** Smallest element, if any, without removing it. *)
val peek : 'a t -> 'a option

(** Remove and return the smallest element. O(log n). *)
val pop : 'a t -> 'a option

(** [iter h f] applies [f] to every element in unspecified order,
    without draining. O(n). *)
val iter : 'a t -> ('a -> unit) -> unit

(** Drain the heap in ascending order (destructive). *)
val to_list : 'a t -> 'a list
