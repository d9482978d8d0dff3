(* Bounded breadth-first exploration of the product automaton.

   States are interned by their canonical byte key, so all interleavings
   of commuting moves that reach the same global state share one node.
   BFS order means the first node satisfying a violation predicate has a
   shortest-possible event schedule, which the rules report verbatim as
   the counterexample. *)

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

(* State keys are strings: hash and compare them as such rather than
   through the polymorphic primitives. *)
module Index = Hashtbl.Make (String)

(* Slot [n] of a doubling array, padded with [fill]. *)
let ensure a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 n;
    b
  end

let run ?(max_nodes = 20_000) model =
  let index = Index.create 1024 in
  let init = Semantics.init model in
  let nodes = ref (Array.make 1024 { id = 0; state = init; pred = None; depth = 0 }) in
  let succs = ref (Array.make 1024 []) in
  let count = ref 0 in
  (* Ids are handed out in discovery order and expanded in the same
     order, so the BFS queue is exactly the id range [next, count). *)
  let next = ref 0 in
  let n_transitions = ref 0 in
  let por_skipped = ref 0 in
  let peak_frontier = ref 0 in
  let truncated = ref false in
  let intern ~pred ~depth state =
    let k = Global_state.key state in
    match Index.find_opt index k with
    | Some id -> id
    | None ->
        let id = !count in
        Index.add index k id;
        nodes := ensure !nodes id !nodes.(0);
        !nodes.(id) <- { id; state; pred; depth };
        count := id + 1;
        peak_frontier := max !peak_frontier (!count - !next);
        id
  in
  ignore (intern ~pred:None ~depth:0 init);
  while !next < !count do
    let id = !next in
    incr next;
    let n = !nodes.(id) in
    let moves, skipped = Semantics.reduced model n.state in
    por_skipped := !por_skipped + skipped;
    let out =
      List.filter_map
        (fun move ->
          if !count >= max_nodes then begin
            truncated := true;
            None
          end
          else begin
            let state' = Semantics.apply model n.state move in
            let target = intern ~pred:(Some (id, move)) ~depth:(n.depth + 1) state' in
            incr n_transitions;
            Some (move, target)
          end)
        moves
    in
    succs := ensure !succs id [];
    !succs.(id) <- out
  done;
  {
    model;
    nodes = Array.sub !nodes 0 !count;
    succs = Array.sub !succs 0 !count;
    n_nodes = !count;
    n_transitions = !n_transitions;
    por_skipped = !por_skipped;
    peak_frontier = !peak_frontier;
    truncated = !truncated;
  }

let node t id = t.nodes.(id)

(* The BFS tree path from the initial state to [id], as a move list. *)
let schedule t id =
  let rec walk acc id =
    match (node t id).pred with None -> acc | Some (p, move) -> walk (move :: acc) p
  in
  walk [] id

(* Visit nodes in id (BFS) order: the first match has a shortest
   schedule. *)
let find_first t pred =
  let rec go id = if id >= t.n_nodes then None else if pred (node t id) then Some id else go (id + 1) in
  go 0

(* Visit edges in ascending source-node id, which keeps diagnostics
   stable. *)
let iter_succs t f = Array.iteri (fun id out -> List.iter (fun (mv, tgt) -> f id mv tgt) out) t.succs

(* --- Settlement reachability under the recovery closure --------------- *)

(* Can [state] still reach a fully settled state if every crashed party
   recovers? Used by M002: a state that cannot is a true global deadlock,
   not a liveness wound. Explored over the revived state space with its
   own memo table (shared across queries); the space is a small quotient
   of the explored one because alive/crash components are normalized. *)
let can_settle_memo t =
  let memo = Index.create 256 in
  let rec go state =
    let state = Global_state.revive state in
    let k = Global_state.key state in
    match Index.find_opt memo k with
    | Some v -> v
    | None ->
        let v =
          Ac3_contract.Swap_template.settled state.Global_state.edges
          ||
          let moves, _ = Semantics.reduced t.model state in
          List.exists (fun move -> go (Semantics.apply t.model state move)) moves
        in
        Index.replace memo k v;
        v
  in
  go
