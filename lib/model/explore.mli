(** Bounded breadth-first exploration of the product automaton.

    States are interned as themselves ({!Global_state.t} is its own byte
    key), so all interleavings of commuting moves reaching the same
    global state share one node; BFS order makes the first node
    satisfying any predicate carry a shortest event schedule. Node ids
    are dense ([0 .. n_nodes - 1]).

    The store keeps fixed-width records in chunks of 2048 that are
    allocated when first written and never copied. Every state of a
    model has the same width, so node [id]'s state is record [id] of a
    byte arena; its BFS tree entry is four unsigned 32-bit fields
    (predecessor id, code of the move from it, depth, number of
    successors); and its successors, in the order {!Semantics.reduced}
    returned their moves, are consecutive [(target, move code)] records
    of a table filled in BFS order. A move code indexes the model's
    [moves], so the store holds no OCaml value per state: a ring-9
    exploration retains about 81 bytes per explored state.
    {!state}, {!node} and {!find_first} hand out fresh copies of a
    state's bytes.

    {!run} interns a state in one [int array] of slots with linear
    probing: a slot packs [(String.hash state lsl 32) lor id], so a
    lookup compares hash bits before it compares the state's bytes with
    the arena record, a word at a time. The table doubles when half full
    and re-places each slot by its stored hash bits without hashing a
    state again. Ids therefore fit in 32 bits. *)

(** One node of the BFS tree, assembled on demand by {!node}. *)
type node = {
  id : int;
  state : Global_state.t;
  pred : (int * Semantics.move) option;  (** BFS tree edge used to reach this node *)
  depth : int;
}

(** The states, BFS tree and successors; read through the functions
    below. *)
type store

type t = private {
  model : Semantics.model;
  n_nodes : int;
  n_transitions : int;
  por_skipped : int;  (** transitions pruned by the partial-order reduction *)
  peak_frontier : int;
  truncated : bool;
  store : store;
}

(** The largest accepted [max_nodes]: [2{^32}], so every id fits in the
    low 32 bits of an intern slot. *)
val max_nodes_limit : int

(** Explores at most [max_nodes] states (default 20 000). Raises
    [Invalid_argument] when [max_nodes] exceeds {!max_nodes_limit}. *)
val run : ?max_nodes:int -> Semantics.model -> t

(** Packs a given exploration: [nodes.(id)] is node [id] (its [id]
    field is not read, and only node 0 has no [pred]), [succs.(id)] its
    successors in order. {!run} builds the same store from its own BFS;
    this lets another explorer's result go through the same readers and
    rules. *)
val of_tree :
  Semantics.model ->
  nodes:node array ->
  succs:(Semantics.move * int) list array ->
  por_skipped:int ->
  peak_frontier:int ->
  truncated:bool ->
  t

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
