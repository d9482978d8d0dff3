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
    successors); and its successors, in the order {!Semantics.ample}
    left their codes, are consecutive [(target, move code)] records of
    a table filled in BFS order. A move code ({!Semantics.code}) decodes
    to one of the model's preallocated [moves], so the store holds no
    OCaml value per state: a ring-9 exploration retains about 81 bytes
    per explored state. {!find_first} and {!can_settle_memo} read a
    state where it lies; {!state} and {!node} hand out fresh copies.

    {!run} expands a state with one {!Semantics.scan} of its arena
    record into a move-code buffer it reuses, and builds every
    successor in one scratch record ({!Semantics.step}) that it
    interns from there: a state's bytes are copied into the arena once,
    when it is first seen.

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

(** [intern_ids states] interns [states] in turn into a fresh table, as
    {!run} interns the states it reaches, and returns their ids: equal
    states share an id, and a new state takes the next one. All the
    states must have one width. *)
val intern_ids : Global_state.t array -> int array

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

(** A fresh copy of node [id]'s state. *)
val state : t -> int -> Global_state.t

(** Node [id]'s state lies at [state_pos t id] in [state_bytes t id],
    where the {!Global_state} [_at] readers read it in place. The bytes
    belong to the store: never write them. *)
val state_bytes : t -> int -> Bytes.t

val state_pos : t -> int -> int

val node : t -> int -> node

(** The BFS tree path from the initial state to the node. *)
val schedule : t -> int -> Semantics.move list

(** First node id (in BFS order, hence with a shortest schedule) whose
    state satisfies the predicate, which reads it in place: [pred b pos]
    as for {!state_bytes}. *)
val find_first : t -> (Bytes.t -> int -> bool) -> int option

(** Every transition as [f source move target], in ascending source id
    and, per source, in successor order. *)
val iter_succs : t -> (int -> Semantics.move -> int -> unit) -> unit

(** [can_settle_memo t b pos] — can the state at [pos] in [b] still
    reach a fully settled state if every crashed party recovers?
    Memoized across queries; the M002 deadlock condition is its
    negation. *)
val can_settle_memo : t -> Bytes.t -> int -> bool
