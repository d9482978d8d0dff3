(* Bounded breadth-first exploration of the product automaton.

   States are interned as themselves (a state is its own byte key), so
   all interleavings of commuting moves that reach the same global state
   share one node. BFS order means the first node satisfying a violation
   predicate has a shortest-possible event schedule, which the rules
   report verbatim as the counterexample.

   The store is flat: the BFS tree is four id-indexed arrays, and the
   successors are one table filled in BFS order, a start offset per
   node plus parallel target and move arrays. The arrays grow by
   doubling and are handed to the caller at their final capacity;
   [n_nodes] and [n_transitions] bound the live prefix.

   The intern table is one [int array] of slots with linear probing. A
   slot is [empty] or [(String.hash state lsl 32) lor id]: the hash
   bits are compared before any string, and [states.(id)] stays the
   only reference to a state string. The table doubles when half full
   and re-places every slot by its stored hash bits, so no state is
   hashed twice. *)

type node = {
  id : int;
  state : Global_state.t;
  pred : (int * Semantics.move) option;
  depth : int;
}

type t = {
  model : Semantics.model;
  states : Global_state.t array;
  pred_id : int array;
  pred_move : Semantics.move array;
  depth : int array;
  succ_start : int array;
  succ_target : int array;
  succ_move : Semantics.move array;
  n_nodes : int;
  n_transitions : int;
  por_skipped : int;
  peak_frontier : int;
  truncated : bool;
}

(* Ids take the low 32 bits of a slot and [String.hash] (30 bits) the
   bits above them, so every occupied slot is non-negative. *)
let id_bits = 32

let id_mask = (1 lsl id_bits) - 1

let max_nodes_limit = 1 lsl id_bits

let empty = -1

(* The id of state [k] (hash [h]) probing from slot [i], or [-1 - j]
   for the empty slot [j] where it belongs. *)
let rec find slots states h k i =
  let v = slots.(i) in
  if v = empty then -1 - i
  else if
    v lsr id_bits = h && String.equal (states.(v land id_mask) : Global_state.t :> string) k
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

(* [a] with room for slot [n], doubled and padded with [fill] when full. *)
let ensure a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 n;
    b
  end

let run ?(max_nodes = 20_000) model =
  if max_nodes > max_nodes_limit then
    invalid_arg
      (Printf.sprintf "Explore.run: max_nodes must be at most %d (got %d)" max_nodes_limit
         max_nodes);
  let slots = ref (Array.make 2048 empty) in
  let init = Semantics.init model in
  (* The root's [pred_move] slot is never read; any move fills it. *)
  let filler = Semantics.Expire in
  let states = ref (Array.make 1024 init) in
  let pred_id = ref (Array.make 1024 (-1)) in
  let pred_move = ref (Array.make 1024 filler) in
  let depth = ref (Array.make 1024 0) in
  let succ_start = ref (Array.make 1024 0) in
  let succ_target = ref (Array.make 1024 0) in
  let succ_move = ref (Array.make 1024 filler) in
  let count = ref 0 in
  (* Ids are handed out in discovery order and expanded in the same
     order, so the BFS queue is exactly the id range [next, count). *)
  let next = ref 0 in
  let n_transitions = ref 0 in
  let por_skipped = ref 0 in
  let peak_frontier = ref 0 in
  let truncated = ref false in
  let intern ~pred ~move ~d state =
    let k = (state : Global_state.t :> string) in
    let h = String.hash k in
    let found = find !slots !states h k (h land (Array.length !slots - 1)) in
    if found >= 0 then found
    else begin
      let id = !count in
      !slots.(-1 - found) <- (h lsl id_bits) lor id;
      if 2 * (id + 1) >= Array.length !slots then slots := grow !slots;
      states := ensure !states id init;
      pred_id := ensure !pred_id id (-1);
      pred_move := ensure !pred_move id filler;
      depth := ensure !depth id 0;
      !states.(id) <- state;
      !pred_id.(id) <- pred;
      !pred_move.(id) <- move;
      !depth.(id) <- d;
      count := id + 1;
      peak_frontier := max !peak_frontier (!count - !next);
      id
    end
  in
  ignore (intern ~pred:(-1) ~move:filler ~d:0 init);
  while !next < !count do
    let id = !next in
    incr next;
    let state = !states.(id) and d = !depth.(id) + 1 in
    let moves, skipped = Semantics.reduced model state in
    por_skipped := !por_skipped + skipped;
    succ_start := ensure !succ_start (id + 1) 0;
    !succ_start.(id) <- !n_transitions;
    List.iter
      (fun move ->
        if !count >= max_nodes then truncated := true
        else begin
          let target = intern ~pred:id ~move ~d (Semantics.apply model state move) in
          let e = !n_transitions in
          succ_target := ensure !succ_target e 0;
          succ_move := ensure !succ_move e filler;
          !succ_target.(e) <- target;
          !succ_move.(e) <- move;
          n_transitions := e + 1
        end)
      moves
  done;
  !succ_start.(!count) <- !n_transitions;
  {
    model;
    states = !states;
    pred_id = !pred_id;
    pred_move = !pred_move;
    depth = !depth;
    succ_start = !succ_start;
    succ_target = !succ_target;
    succ_move = !succ_move;
    n_nodes = !count;
    n_transitions = !n_transitions;
    por_skipped = !por_skipped;
    peak_frontier = !peak_frontier;
    truncated = !truncated;
  }

let state t id = t.states.(id)

let node t id =
  let pred = if t.pred_id.(id) < 0 then None else Some (t.pred_id.(id), t.pred_move.(id)) in
  { id; state = t.states.(id); pred; depth = t.depth.(id) }

(* The BFS tree path from the initial state to [id], as a move list. *)
let schedule t id =
  let rec walk acc id = if t.pred_id.(id) < 0 then acc else walk (t.pred_move.(id) :: acc) t.pred_id.(id) in
  walk [] id

(* Visit nodes in id (BFS) order: the first match has a shortest
   schedule. *)
let find_first t pred =
  let rec go id = if id >= t.n_nodes then None else if pred t.states.(id) then Some id else go (id + 1) in
  go 0

(* Visit edges in ascending source-node id, which keeps diagnostics
   stable. *)
let iter_succs t f =
  for id = 0 to t.n_nodes - 1 do
    for e = t.succ_start.(id) to t.succ_start.(id + 1) - 1 do
      f id t.succ_move.(e) t.succ_target.(e)
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
