(** Bounded breadth-first exploration of the product automaton.

    States are interned by their canonical byte key, so all
    interleavings of commuting moves reaching the same global state
    share one node; BFS order makes the first node satisfying any
    predicate carry a shortest event schedule. Node ids are dense
    ([0 .. n_nodes - 1]) and index the node and successor arrays. *)

type node = {
  id : int;
  state : Global_state.t;
  pred : (int * Semantics.move) option;  (** BFS tree edge used to reach this node *)
  depth : int;
}

type t = {
  model : Semantics.model;
  nodes : node array;  (** indexed by id; exactly [n_nodes] entries *)
  succs : (Semantics.move * int) list array;  (** indexed by source id, like [nodes] *)
  n_nodes : int;
  n_transitions : int;
  por_skipped : int;  (** transitions pruned by the partial-order reduction *)
  peak_frontier : int;
  truncated : bool;
}

val run : ?max_nodes:int -> Semantics.model -> t

val node : t -> int -> node

(** The BFS tree path from the initial state to the node. *)
val schedule : t -> int -> Semantics.move list

(** First node (in BFS id order, hence with a shortest schedule)
    satisfying the predicate. *)
val find_first : t -> (node -> bool) -> int option

val iter_succs : t -> (int -> Semantics.move -> int -> unit) -> unit

(** [can_settle_memo t state] — can [state] still reach a fully settled
    state if every crashed party recovers? Memoized across queries; the
    M002 deadlock condition is its negation. *)
val can_settle_memo : t -> Global_state.t -> bool
