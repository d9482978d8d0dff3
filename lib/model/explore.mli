(** Bounded breadth-first exploration of the product automaton.

    States are interned as themselves ({!Global_state.t} is its own byte
    key), so all interleavings of commuting moves reaching the same
    global state share one node; BFS order makes the first node
    satisfying any predicate carry a shortest event schedule. Node ids
    are dense ([0 .. n_nodes - 1]).

    The store is flat. The BFS tree is four id-indexed arrays
    ([states], [pred_id], [pred_move], [depth]). The successors are one
    table filled in BFS order: node [id]'s outgoing transitions, in the
    order {!Semantics.reduced} returned their moves, are the slots
    [succ_start.(id) .. succ_start.(id + 1) - 1] of [succ_target] and
    [succ_move]. The arrays keep the capacity they grew to: only the
    first [n_nodes] (tree), [n_nodes + 1] ([succ_start]) and
    [n_transitions] (successor) slots are meaningful.

    {!run} interns a state in one [int array] of slots with linear
    probing: a slot packs [(String.hash state lsl 32) lor id], so a
    lookup compares hash bits before it compares bytes, and [states]
    holds the only reference to each state string. The table doubles
    when half full and re-places each slot by its stored hash bits
    without hashing a string again. Ids therefore fit in 32 bits. *)

(** One node of the BFS tree, assembled on demand by {!node}. *)
type node = {
  id : int;
  state : Global_state.t;
  pred : (int * Semantics.move) option;  (** BFS tree edge used to reach this node *)
  depth : int;
}

type t = {
  model : Semantics.model;
  states : Global_state.t array;
  pred_id : int array;  (** BFS tree predecessor; [-1] for the initial state *)
  pred_move : Semantics.move array;  (** move on the BFS tree edge; unread for the initial state *)
  depth : int array;
  succ_start : int array;
  succ_target : int array;
  succ_move : Semantics.move array;
  n_nodes : int;
  n_transitions : int;
  por_skipped : int;  (** transitions pruned by the partial-order reduction *)
  peak_frontier : int;
  truncated : bool;
}

(** The largest accepted [max_nodes]: [2{^32}], so every id fits in the
    low 32 bits of an intern slot. *)
val max_nodes_limit : int

(** Explores at most [max_nodes] states (default 20 000). Raises
    [Invalid_argument] when [max_nodes] exceeds {!max_nodes_limit}. *)
val run : ?max_nodes:int -> Semantics.model -> t

val state : t -> int -> Global_state.t

val node : t -> int -> node

(** The BFS tree path from the initial state to the node. *)
val schedule : t -> int -> Semantics.move list

(** First node id (in BFS order, hence with a shortest schedule) whose
    state satisfies the predicate. *)
val find_first : t -> (Global_state.t -> bool) -> int option

(** Every transition as [f source move target], in ascending source id
    and, per source, in successor order. *)
val iter_succs : t -> (int -> Semantics.move -> int -> unit) -> unit

(** [can_settle_memo t state] — can [state] still reach a fully settled
    state if every crashed party recovers? Memoized across queries; the
    M002 deadlock condition is its negation. *)
val can_settle_memo : t -> Global_state.t -> bool
