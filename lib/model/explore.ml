(* Bounded breadth-first exploration of the product automaton.

   States are interned as themselves (a state is its own byte key), so
   all interleavings of commuting moves that reach the same global state
   share one node. BFS order means the first node satisfying a violation
   predicate has a shortest-possible event schedule, which the rules
   report verbatim as the counterexample.

   The store is three arenas of fixed-width records, each kept in chunks
   of 2048 records. A chunk is allocated when its first record is
   written and is never copied; only the directory of chunk pointers
   grows, by doubling. Every state of a model has the same width, so
   node [id]'s state bytes are record [id] of [states]. Record [id] of
   [tree] is four unsigned 32-bit fields: the BFS predecessor, the code
   of the move from it, the depth and the number of successors.
   Successors are filled in BFS order, one [(target, move code)] record
   per transition, so node [id]'s successors follow those of every
   smaller id. A move code indexes the model's preallocated moves.

   The intern table is one [int array] of slots with linear probing. A
   slot is [empty] or [(String.hash state lsl 32) lor id]: the hash bits
   are compared before any bytes, and the [states] arena holds the only
   copy of a state. The table doubles when half full and re-places every
   slot by its stored hash bits, so no state is hashed twice. *)

type node = {
  id : int;
  state : Global_state.t;
  pred : (int * Semantics.move) option;
  depth : int;
}

(* Records [0 ..] of one width, in lazily allocated chunks. *)
type arena = {
  width : int;
  mutable chunks : Bytes.t array;
}

type store = {
  states : arena;
  tree : arena;
  succs : arena;
}

type t = {
  model : Semantics.model;
  n_nodes : int;
  n_transitions : int;
  por_skipped : int;
  peak_frontier : int;
  truncated : bool;
  store : store;
}

(* Ids take the low 32 bits of a slot and [String.hash] (30 bits) the
   bits above them, so every occupied slot is non-negative. *)
let id_bits = 32

let id_mask = (1 lsl id_bits) - 1

let max_nodes_limit = 1 lsl id_bits

let empty = -1

(* --- Arenas ----------------------------------------------------------- *)

(* 2048 records a chunk (96 KB of ring-9 states): a two-party check
   allocates one chunk per arena, and a large exploration wastes at most
   one partly filled chunk per arena. *)
let chunk_bits = 11

let chunk_mask = (1 lsl chunk_bits) - 1

let arena width = { width; chunks = [||] }

let chunk a i = a.chunks.(i lsr chunk_bits)

let offset a i = (i land chunk_mask) * a.width

(* Makes record [i] writable, allocating its chunk if it has none. *)
let reserve a i =
  let c = i lsr chunk_bits in
  let n = Array.length a.chunks in
  if c >= n then begin
    let bigger = Array.make (max 8 (2 * n)) Bytes.empty in
    Array.blit a.chunks 0 bigger 0 n;
    a.chunks <- bigger
  end;
  if Bytes.length a.chunks.(c) = 0 then a.chunks.(c) <- Bytes.create ((chunk_mask + 1) * a.width)

let get32 a i field = Int32.to_int (Bytes.get_int32_le (chunk a i) (offset a i + field)) land id_mask

let set32 a i field v = Bytes.set_int32_le (chunk a i) (offset a i + field) (Int32.of_int v)

(* Tree record fields, and the root's predecessor: a predecessor id is
   always below its child's, so no node has predecessor [id_mask]. *)
let pred_field = 0

let move_field = 4

let depth_field = 8

let count_field = 12

let no_pred = id_mask

(* Successor record fields. *)
let target_field = 0

let succ_move_field = 4

let store model =
  let width = String.length (Semantics.init model :> string) in
  { states = arena width; tree = arena 16; succs = arena 8 }

let add_node s id state ~pred ~move ~depth =
  reserve s.states id;
  reserve s.tree id;
  Bytes.blit_string (state : Global_state.t :> string) 0 (chunk s.states id) (offset s.states id)
    s.states.width;
  set32 s.tree id pred_field pred;
  set32 s.tree id move_field move;
  set32 s.tree id depth_field depth;
  set32 s.tree id count_field 0

let read s id = Global_state.of_bytes (chunk s.states id) (offset s.states id)

let add_succ s e ~target ~move =
  reserve s.succs e;
  set32 s.succs e target_field target;
  set32 s.succs e succ_move_field move

(* --- Moves as codes --------------------------------------------------- *)

let code : Semantics.move -> int = function
  | Expire -> 0
  | W_commit -> 1
  | W_abort -> 2
  | Deploy i -> 3 + (4 * i)
  | Redeem i -> 4 + (4 * i)
  | Refund i -> 5 + (4 * i)
  | Crash p -> 6 + (4 * p)

let move_of_code (m : Semantics.model) c : Semantics.move =
  match c with
  | 0 -> Expire
  | 1 -> W_commit
  | 2 -> W_abort
  | c -> (
      let i = (c - 3) lsr 2 in
      match (c - 3) land 3 with
      | 0 -> m.moves.deploy.(i)
      | 1 -> m.moves.redeem.(i)
      | 2 -> m.moves.refund.(i)
      | _ -> m.moves.crash.(i))

(* --- Interning -------------------------------------------------------- *)

(* [k] equals the state bytes at [off] in [b], compared 8 bytes at a
   time. A state is at least 21 bytes long, so the last word is read at
   [length - 8] and overlaps its predecessor when the width is not a
   multiple of 8. *)
let rec equal_from b off k i =
  let last = String.length k - 8 in
  if i >= last then Bytes.get_int64_ne b (off + last) = String.get_int64_ne k last
  else Bytes.get_int64_ne b (off + i) = String.get_int64_ne k i && equal_from b off k (i + 8)

(* The id of state [k] (hash [h]) probing from slot [i], or [-1 - j]
   for the empty slot [j] where it belongs. *)
let rec find slots states h k i =
  let v = slots.(i) in
  if v = empty then -1 - i
  else if
    v lsr id_bits = h
    &&
    let id = v land id_mask in
    equal_from (chunk states id) (offset states id) k 0
  then v land id_mask
  else find slots states h k ((i + 1) land (Array.length slots - 1))

(* The first empty slot probing from [i]. *)
let rec free slots i =
  if slots.(i) = empty then i else free slots ((i + 1) land (Array.length slots - 1))

(* [slots] at twice the size, every entry re-placed by its hash bits. *)
let grow slots =
  let bigger = Array.make (2 * Array.length slots) empty in
  let mask = Array.length bigger - 1 in
  Array.iter
    (fun v -> if v <> empty then bigger.(free bigger ((v lsr id_bits) land mask)) <- v)
    slots;
  bigger

let run ?(max_nodes = 20_000) model =
  if max_nodes > max_nodes_limit then
    invalid_arg
      (Printf.sprintf "Explore.run: max_nodes must be at most %d (got %d)" max_nodes_limit
         max_nodes);
  let s = store model in
  let slots = ref (Array.make 2048 empty) in
  let count = ref 0 in
  (* Ids are handed out in discovery order and expanded in the same
     order, so the BFS queue is exactly the id range [next, count). *)
  let next = ref 0 in
  let n_transitions = ref 0 in
  let por_skipped = ref 0 in
  let peak_frontier = ref 0 in
  let truncated = ref false in
  let intern ~pred ~move ~depth state =
    let k = (state : Global_state.t :> string) in
    let h = String.hash k in
    let found = find !slots s.states h k (h land (Array.length !slots - 1)) in
    if found >= 0 then found
    else begin
      let id = !count in
      !slots.(-1 - found) <- (h lsl id_bits) lor id;
      if 2 * (id + 1) >= Array.length !slots then slots := grow !slots;
      add_node s id state ~pred ~move ~depth;
      count := id + 1;
      peak_frontier := max !peak_frontier (!count - !next);
      id
    end
  in
  ignore (intern ~pred:no_pred ~move:0 ~depth:0 (Semantics.init model));
  while !next < !count do
    let id = !next in
    incr next;
    let state = read s id in
    let depth = get32 s.tree id depth_field + 1 in
    let moves, skipped = Semantics.reduced model state in
    por_skipped := !por_skipped + skipped;
    let first = !n_transitions in
    List.iter
      (fun move ->
        if !count >= max_nodes then truncated := true
        else begin
          let c = code move in
          let target = intern ~pred:id ~move:c ~depth (Semantics.apply model state move) in
          add_succ s !n_transitions ~target ~move:c;
          incr n_transitions
        end)
      moves;
    set32 s.tree id count_field (!n_transitions - first)
  done;
  {
    model;
    n_nodes = !count;
    n_transitions = !n_transitions;
    por_skipped = !por_skipped;
    peak_frontier = !peak_frontier;
    truncated = !truncated;
    store = s;
  }

let of_tree model ~nodes ~succs ~por_skipped ~peak_frontier ~truncated =
  let s = store model in
  Array.iteri
    (fun id (n : node) ->
      let pred, move = match n.pred with None -> (no_pred, 0) | Some (p, mv) -> (p, code mv) in
      add_node s id n.state ~pred ~move ~depth:n.depth)
    nodes;
  let e = ref 0 in
  Array.iteri
    (fun id l ->
      set32 s.tree id count_field (List.length l);
      List.iter
        (fun (mv, target) ->
          add_succ s !e ~target ~move:(code mv);
          incr e)
        l)
    succs;
  {
    model;
    n_nodes = Array.length nodes;
    n_transitions = !e;
    por_skipped;
    peak_frontier;
    truncated;
    store = s;
  }

let state t id = read t.store id

let pred_of t id =
  let p = get32 t.store.tree id pred_field in
  if p = no_pred then None else Some (p, move_of_code t.model (get32 t.store.tree id move_field))

let node t id =
  { id; state = state t id; pred = pred_of t id; depth = get32 t.store.tree id depth_field }

(* The BFS tree path from the initial state to [id], as a move list. *)
let schedule t id =
  let rec walk acc id =
    match pred_of t id with None -> acc | Some (p, move) -> walk (move :: acc) p
  in
  walk [] id

(* Visit nodes in id (BFS) order: the first match has a shortest
   schedule. *)
let find_first t pred =
  let rec go id = if id >= t.n_nodes then None else if pred (state t id) then Some id else go (id + 1) in
  go 0

(* Visit edges in ascending source-node id, which keeps diagnostics
   stable. *)
let iter_succs t f =
  let e = ref 0 in
  for id = 0 to t.n_nodes - 1 do
    for _ = 1 to get32 t.store.tree id count_field do
      let move = move_of_code t.model (get32 t.store.succs !e succ_move_field) in
      f id move (get32 t.store.succs !e target_field);
      incr e
    done
  done

(* --- Settlement reachability under the recovery closure --------------- *)

module State_tbl = Hashtbl.Make (String)

(* Can [state] still reach a fully settled state if every crashed party
   recovers? Used by M002: a state that cannot is a true global deadlock,
   not a liveness wound. Explored over the revived state space with its
   own memo table (shared across queries); the space is a small quotient
   of the explored one because alive/crash components are normalized. *)
let can_settle_memo t =
  let memo = State_tbl.create 256 in
  let rec go state =
    let state = Global_state.revive state in
    let k = (state : Global_state.t :> string) in
    match State_tbl.find_opt memo k with
    | Some v -> v
    | None ->
        let v =
          Global_state.settled state
          ||
          let moves, _ = Semantics.reduced t.model state in
          List.exists (fun move -> go (Semantics.apply t.model state move)) moves
        in
        State_tbl.replace memo k v;
        v
  in
  go
