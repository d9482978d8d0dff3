(* Slow reference implementations for the differential test harnesses
   (test_fast.ml, test_model.ml).

   [Engine] is the boxed-heap event queue the simulator shipped with
   before the index-sorted arena (lib/fast/arena.ml) replaced it,
   kept compiled under test verbatim so the optimized engine always
   has a live semantic baseline: same (time, seq) dispatch order, same
   flag-only cancellation, same clock-advance rules. The hash and
   ledger hot paths need no separate copy — their reference mode is
   the same code with every memo table passed through
   ([Ac3_fast.Memo.set_enabled false]), which the harness toggles. *)
module Heap = Ac3_sim.Heap

module Engine = struct
  type event = { time : float; seq : int; callback : unit -> unit; mutable cancelled : bool }

  type handle = event

  type t = {
    mutable now : float;
    mutable next_seq : int;
    queue : event Heap.t;
    mutable executed : int;
  }

  let compare_event a b =
    let c = Float.compare a.time b.time in
    if c <> 0 then c else Int.compare a.seq b.seq

  let create () = { now = 0.0; next_seq = 0; queue = Heap.create compare_event; executed = 0 }

  let now t = t.now

  let executed_events t = t.executed

  let pending_events t =
    let live = ref 0 in
    Heap.iter t.queue (fun ev -> if not ev.cancelled then incr live);
    !live

  let schedule_at t ~time callback =
    if time < t.now then
      invalid_arg
        (Printf.sprintf "Engine.schedule_at: time %.6f is in the past (now %.6f)" time t.now);
    let ev = { time; seq = t.next_seq; callback; cancelled = false } in
    t.next_seq <- t.next_seq + 1;
    Heap.push t.queue ev;
    ev

  let schedule t ~delay callback =
    if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
    schedule_at t ~time:(t.now +. delay) callback

  let cancel handle = handle.cancelled <- true

  let is_cancelled handle = handle.cancelled

  let run ?(until = infinity) ?stop t =
    let should_stop () = match stop with None -> false | Some f -> f () in
    let count = ref 0 in
    let rec loop () =
      if should_stop () then ()
      else
        match Heap.peek t.queue with
        | None -> ()
        | Some ev when ev.time > until -> ()
        | Some _ -> (
            match Heap.pop t.queue with
            | None -> ()
            | Some ev ->
                if not ev.cancelled then begin
                  t.now <- ev.time;
                  incr count;
                  t.executed <- t.executed + 1;
                  ev.callback ()
                end;
                loop ())
    in
    loop ();
    if (not (should_stop ())) && until < infinity && t.now < until then t.now <- until;
    !count

  let run_until t horizon = ignore (run ~until:horizon t)
end

(* [Model] is the model checker's exploration as it stood before the
   dense id-indexed store: node and successor tables in polymorphic
   [Hashtbl]s keyed by id, a [Buffer]-built state key, and an [apply]
   that copies all three state arrays on every move. Kept verbatim
   (only the module paths of [key], [revive] and [apply] differ) so
   test_model.ml can hold [Ac3_model.Explore] to the same ids, BFS tree,
   successor lists and statistics. *)
module Model = struct
  module Semantics = Ac3_model.Semantics
  module Global_state = Ac3_model.Global_state
  open Semantics
  open Global_state

  let key s =
    let b = Buffer.create 64 in
    Array.iter (fun e -> Buffer.add_char b (status_char e)) s.edges;
    Buffer.add_char b '|';
    Array.iter (fun k -> Buffer.add_char b (if k then '1' else '0')) s.knows;
    Buffer.add_char b '|';
    Array.iter (fun a -> Buffer.add_char b (if a then '1' else '0')) s.alive;
    Buffer.add_char b '|';
    Buffer.add_string b (string_of_int s.time);
    Buffer.add_char b (witness_char s.witness);
    Buffer.add_string b (string_of_int s.crashes_left);
    Buffer.contents b

  let revive s =
    {
      s with
      alive = Array.map (fun _ -> true) s.alive;
      crashes_left = 0;
    }

  let apply m (s : Global_state.t) move =
    let edges = Array.copy s.edges in
    let knows = Array.copy s.knows in
    let alive = Array.copy s.alive in
    let base = { s with edges; knows; alive } in
    match move with
    | Deploy i ->
        edges.(i) <- Published;
        base
    | Redeem i ->
        edges.(i) <- Redeemed;
        (* The sender extracts the secret from the redeem transaction. *)
        if m.profile = Ac3_flow.Flow.Single_leader then knows.(m.edge_from.(i)) <- true;
        base
    | Refund i ->
        edges.(i) <- Refunded;
        base
    | Crash p ->
        alive.(p) <- false;
        { base with crashes_left = s.crashes_left - 1 }
    | Expire -> { base with time = s.time + 1 }
    | W_commit -> { base with witness = W_redeem }
    | W_abort -> { base with witness = W_refund }

  type node = {
    id : int;
    state : Global_state.t;
    pred : (int * Semantics.move) option;  (** BFS tree edge used to reach this node *)
    depth : int;
  }

  type t = {
    model : Semantics.model;
    nodes : (int, node) Hashtbl.t;
    succs : (int, (Semantics.move * int) list) Hashtbl.t;
    n_nodes : int;
    n_transitions : int;
    por_skipped : int;  (** transitions pruned by the partial-order reduction *)
    peak_frontier : int;
    truncated : bool;
  }

  let run ?(max_nodes = 20_000) model =
    let index = Hashtbl.create 1024 in
    let nodes = Hashtbl.create 1024 in
    let succs = Hashtbl.create 1024 in
    let count = ref 0 in
    let n_transitions = ref 0 in
    let por_skipped = ref 0 in
    let peak_frontier = ref 0 in
    let truncated = ref false in
    let pending = Queue.create () in
    let intern ~pred ~depth state =
      let k = key state in
      match Hashtbl.find_opt index k with
      | Some id -> id
      | None ->
          let id = !count in
          incr count;
          Hashtbl.replace index k id;
          Hashtbl.replace nodes id { id; state; pred; depth };
          Queue.push id pending;
          if Queue.length pending > !peak_frontier then peak_frontier := Queue.length pending;
          id
    in
    ignore (intern ~pred:None ~depth:0 (Semantics.init model));
    while not (Queue.is_empty pending) do
      let id = Queue.pop pending in
      let n = Hashtbl.find nodes id in
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
              let state' = apply model n.state move in
              let target = intern ~pred:(Some (id, move)) ~depth:(n.depth + 1) state' in
              incr n_transitions;
              Some (move, target)
            end)
          moves
      in
      Hashtbl.replace succs id out
    done;
    {
      model;
      nodes;
      succs;
      n_nodes = !count;
      n_transitions = !n_transitions;
      por_skipped = !por_skipped;
      peak_frontier = !peak_frontier;
      truncated = !truncated;
    }

  let node t id = Hashtbl.find t.nodes id

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

  (* Visit edges in ascending source-node id — node ids are dense 0..n-1,
     so indexing beats hash-bucket order and keeps diagnostics stable. *)
  let iter_succs t f =
    for id = 0 to t.n_nodes - 1 do
      match Hashtbl.find_opt t.succs id with
      | Some out -> List.iter (fun (mv, tgt) -> f id mv tgt) out
      | None -> ()
    done

  (* --- Settlement reachability under the recovery closure --------------- *)

  (* Can [state] still reach a fully settled state if every crashed party
     recovers? Used by M002: a state that cannot is a true global deadlock,
     not a liveness wound. Explored over the revived state space with its
     own memo table (shared across queries); the space is a small quotient
     of the explored one because alive/crash components are normalized. *)
  let can_settle_memo t =
    let memo = Hashtbl.create 256 in
    let rec go state =
      let state = revive state in
      let k = key state in
      match Hashtbl.find_opt memo k with
      | Some v -> v
      | None ->
          let v =
            Ac3_contract.Swap_template.settled state.Global_state.edges
            ||
            let moves, _ = Semantics.reduced t.model state in
            List.exists (fun move -> go (apply t.model state move)) moves
          in
          Hashtbl.replace memo k v;
          v
    in
    go
end
