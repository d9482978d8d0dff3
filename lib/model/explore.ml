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
   smaller id. A move code ([Semantics.code]) decodes to one of the
   model's preallocated moves.

   Expanding a state is one [Semantics.scan] of its record, in place,
   into a code buffer the run reuses; each successor is built in one
   scratch record ([Semantics.step]) and interned from there, so a
   state's bytes are copied only when it is first seen.

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

let set_tree s id ~pred ~move ~depth =
  reserve s.tree id;
  set32 s.tree id pred_field pred;
  set32 s.tree id move_field move;
  set32 s.tree id depth_field depth;
  set32 s.tree id count_field 0

let add_succ s e ~target ~move =
  reserve s.succs e;
  set32 s.succs e target_field target;
  set32 s.succs e succ_move_field move

(* --- Interning -------------------------------------------------------- *)

(* [k] equals the state bytes at [off] in [b], compared 8 bytes at a
   time. A state is at least 21 bytes long, so the last word is read at
   [length - 8] and overlaps its predecessor when the width is not a
   multiple of 8. *)
let rec equal_from b off k i =
  let last = Bytes.length k - 8 in
  if i >= last then Bytes.get_int64_ne b (off + last) = Bytes.get_int64_ne k last
  else Bytes.get_int64_ne b (off + i) = Bytes.get_int64_ne k i && equal_from b off k (i + 8)

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

(* The slots over a [states] arena whose records [0, count) are the
   interned states. *)
type interner = {
  states : arena;
  mutable slots : int array;
  mutable count : int;
}

let interner states = { states; slots = Array.make 2048 empty; count = 0 }

(* The id of the state whose bytes are [k]; a state not seen before is
   copied to record [count] and gets that id. [k] is only read. *)
let intern it k =
  let h = String.hash (Bytes.unsafe_to_string k) in
  let found = find it.slots it.states h k (h land (Array.length it.slots - 1)) in
  if found >= 0 then found
  else begin
    let id = it.count in
    it.slots.(-1 - found) <- (h lsl id_bits) lor id;
    if 2 * (id + 1) >= Array.length it.slots then it.slots <- grow it.slots;
    reserve it.states id;
    Bytes.blit k 0 (chunk it.states id) (offset it.states id) it.states.width;
    it.count <- id + 1;
    id
  end

let intern_ids states =
  if Array.length states = 0 then [||]
  else
    let it = interner (arena (String.length (states.(0) : Global_state.t :> string))) in
    Array.map (fun s -> intern it (Bytes.of_string (s : Global_state.t :> string))) states

let run ?(max_nodes = 20_000) model =
  if max_nodes > max_nodes_limit then
    invalid_arg
      (Printf.sprintf "Explore.run: max_nodes must be at most %d (got %d)" max_nodes_limit
         max_nodes);
  let s = store model in
  let it = interner s.states in
  (* Ids are handed out in discovery order and expanded in the same
     order, so the BFS queue is exactly the id range [next, count). *)
  let next = ref 0 in
  let n_transitions = ref 0 in
  let por_skipped = ref 0 in
  let peak_frontier = ref 0 in
  let truncated = ref false in
  let add ~pred ~move ~depth k =
    let fresh = it.count in
    let id = intern it k in
    if id = fresh then begin
      set_tree s id ~pred ~move ~depth;
      peak_frontier := max !peak_frontier (it.count - !next)
    end;
    id
  in
  (* Every successor is built in [scratch]: a copy of its source's
     record with the move's fields written, interned from there. *)
  let width = s.states.width in
  let scratch = Bytes.of_string (Semantics.init model :> string) in
  let codes = Array.make (Semantics.max_moves model) 0 in
  ignore (add ~pred:no_pred ~move:0 ~depth:0 scratch);
  while !next < it.count do
    let id = !next in
    incr next;
    (* A chunk is never moved, so the source stays where it is while
       its successors are appended. *)
    let b = chunk s.states id and pos = offset s.states id in
    let depth = get32 s.tree id depth_field + 1 in
    let enabled = Semantics.scan model b pos codes in
    let ample = Semantics.ample model b pos codes enabled in
    por_skipped := !por_skipped + enabled - ample;
    let first = !n_transitions in
    for j = 0 to ample - 1 do
      if it.count >= max_nodes then truncated := true
      else begin
        let c = codes.(j) in
        Bytes.blit b pos scratch 0 width;
        Semantics.step model scratch c;
        let target = add ~pred:id ~move:c ~depth scratch in
        add_succ s !n_transitions ~target ~move:c;
        incr n_transitions
      end
    done;
    set32 s.tree id count_field (!n_transitions - first)
  done;
  {
    model;
    n_nodes = it.count;
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
      let pred, move =
        match n.pred with None -> (no_pred, 0) | Some (p, mv) -> (p, Semantics.code mv)
      in
      reserve s.states id;
      Bytes.blit_string (n.state : Global_state.t :> string) 0 (chunk s.states id)
        (offset s.states id) s.states.width;
      set_tree s id ~pred ~move ~depth:n.depth)
    nodes;
  let e = ref 0 in
  Array.iteri
    (fun id l ->
      set32 s.tree id count_field (List.length l);
      List.iter
        (fun (mv, target) ->
          add_succ s !e ~target ~move:(Semantics.code mv);
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

let state_bytes t id = chunk t.store.states id

let state_pos t id = offset t.store.states id

let state t id = Global_state.of_bytes (state_bytes t id) (state_pos t id)

let pred_of t id =
  let p = get32 t.store.tree id pred_field in
  if p = no_pred then None
  else Some (p, Semantics.move_of_code t.model (get32 t.store.tree id move_field))

let node t id =
  { id; state = state t id; pred = pred_of t id; depth = get32 t.store.tree id depth_field }

(* The BFS tree path from the initial state to [id], as a move list. *)
let schedule t id =
  let rec walk acc id =
    match pred_of t id with None -> acc | Some (p, move) -> walk (move :: acc) p
  in
  walk [] id

(* Visit nodes in id (BFS) order: the first match has a shortest
   schedule. Each state is read where it lies. *)
let find_first t pred =
  let rec go id =
    if id >= t.n_nodes then None
    else if pred (state_bytes t id) (state_pos t id) then Some id
    else go (id + 1)
  in
  go 0

(* Visit edges in ascending source-node id, which keeps diagnostics
   stable. *)
let iter_succs t f =
  let e = ref 0 in
  for id = 0 to t.n_nodes - 1 do
    for _ = 1 to get32 t.store.tree id count_field do
      let move = Semantics.move_of_code t.model (get32 t.store.succs !e succ_move_field) in
      f id move (get32 t.store.succs !e target_field);
      incr e
    done
  done

(* --- Settlement reachability under the recovery closure --------------- *)

module State_tbl = Hashtbl.Make (String)

(* Can a state still reach a fully settled state if every crashed party
   recovers? Used by M002: a state that cannot is a true global
   deadlock, not a liveness wound. Explored over the revived state space
   with its own memo table (shared across queries); the space is a small
   quotient of the explored one because alive/crash components are
   normalized. A query revives its state in a scratch record and
   allocates nothing when the memo already holds the answer. *)
let can_settle_memo t =
  let m = t.model in
  let memo = State_tbl.create 256 in
  (* [key] is revived, so no crash is enabled and every successor is
     revived too. *)
  let rec settles (key : Global_state.t) =
    match State_tbl.find memo (key :> string) with
    | v -> v
    | exception Not_found ->
        let b = Bytes.unsafe_of_string (key :> string) in
        let v =
          Global_state.settled_at b 0
          ||
          let codes = Array.make (Semantics.max_moves m) 0 in
          let n = Semantics.ample m b 0 codes (Semantics.scan m b 0 codes) in
          let rec any j = j < n && (settles (Semantics.apply m key codes.(j)) || any (j + 1)) in
          any 0
        in
        State_tbl.replace memo (key :> string) v;
        v
  in
  let scratch = Bytes.create t.store.states.width in
  fun b pos ->
    Bytes.blit b pos scratch 0 (Bytes.length scratch);
    Global_state.revive scratch;
    match State_tbl.find memo (Bytes.unsafe_to_string scratch) with
    | v -> v
    | exception Not_found -> settles (Global_state.of_bytes scratch 0)
