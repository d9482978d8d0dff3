(* Slow reference implementations for the differential test harnesses
   (test_model.ml, test_crypto.ml, test_chain.ml).

   test_fast.ml needs no copy here. Its verify and ledger reference mode
   is the same code with every memo table passed through
   ([Ac3_crypto.Memo.set_enabled false]), which the harness toggles, and
   it holds the event engine to a sorted-list model of the pending
   events. *)

(* [Enabledness] is the model checker's enabledness and partial-order
   reduction as they stood before the one-scan move kernel: [enabled]
   lists the enabled moves by calling [Global_state]'s string accessors
   and the [Ac3_flow.Protocol] guards per edge, and [reduced] rescans
   that list pairwise for the ample move. Kept verbatim. test_model.ml
   holds [Ac3_model.Semantics.scan] and [ample] to the same codes, ample
   set and pruned count, and [Model] below explores with [reduced], so
   the dense explorer is checked against an enabledness it does not
   share. *)
module Enabledness = struct
  module Semantics = Ac3_model.Semantics
  module Global_state = Ac3_model.Global_state
  module Swap_template = Ac3_contract.Swap_template
  module Protocol = Ac3_flow.Protocol
  module Flow = Ac3_flow.Flow
  open Semantics

  let unpublished s i = Global_state.edge s i = Swap_template.Unpublished

  let all_published s =
    let rec go i = i < 0 || ((not (unpublished s i)) && go (i - 1)) in
    go (Global_state.n_edges s - 1)

  (* Every contract party [p] receives on is published. *)
  let inputs_published m s p =
    let rec go j = j < 0 || ((m.edge_to.(j) <> p || not (unpublished s j)) && go (j - 1)) in
    go (Array.length m.edges - 1)

  let deploy_enabled m s i =
    let p = m.edge_from.(i) in
    unpublished s i
    && Global_state.alive s p
    &&
    match m.profile with
    | Flow.Single_leader ->
        Protocol.Single_leader.deploy ~leader:(p = 0) ~inputs_published:(inputs_published m s p)
    | Flow.Witness -> Protocol.Witness.deploy (Global_state.decision s)

  let redeem_enabled m s ~all_published i =
    let p = m.edge_to.(i) in
    Global_state.edge s i = Swap_template.Published
    && Global_state.alive s p
    &&
    match m.profile with
    | Flow.Single_leader ->
        Protocol.Single_leader.redeem ~knows_secret:(Global_state.knows s p) ~leader:(p = 0)
          ~all_published
    | Flow.Witness -> Protocol.Witness.redeem (Global_state.decision s)

  let refund_enabled m s i =
    Global_state.edge s i = Swap_template.Published
    && Global_state.alive s m.edge_from.(i)
    &&
    match m.profile with
    | Flow.Single_leader ->
        Protocol.Single_leader.refund ~expired:(m.expiry_rank.(i) < Global_state.time s)
    | Flow.Witness -> Protocol.Witness.refund (Global_state.decision s)

  (* Any conforming protocol action that maximal progress must not let a
     deadline overtake. *)
  let urgent m s ~all_published =
    let n = Array.length m.edges in
    let rec go i =
      i < n
      && (deploy_enabled m s i
         || redeem_enabled m s ~all_published i
         || refund_enabled m s i
         || go (i + 1))
    in
    go 0

  let expire_enabled m s ~all_published =
    m.profile = Flow.Single_leader
    && Global_state.time s < m.n_deadlines
    && not (urgent m s ~all_published)

  let crash_enabled s p = Global_state.crashes_left s > 0 && Global_state.alive s p

  (* All enabled moves, in a canonical order (determinism). *)
  let enabled m s =
    let all_published = all_published s in
    let acc = ref [] in
    for p = Array.length m.parties - 1 downto 0 do
      if crash_enabled s p then acc := m.moves.crash.(p) :: !acc
    done;
    if expire_enabled m s ~all_published then acc := Expire :: !acc;
    if m.profile = Flow.Witness then begin
      let decision = Global_state.decision s in
      (* An abort may be requested at any moment: the model explores every timing. *)
      if Protocol.Witness.abort decision ~abort_requested:true then acc := W_abort :: !acc;
      if Protocol.Witness.commit decision ~all_published then acc := W_commit :: !acc
    end;
    for i = Array.length m.edges - 1 downto 0 do
      if refund_enabled m s i then acc := m.moves.refund.(i) :: !acc;
      if redeem_enabled m s ~all_published i then acc := m.moves.redeem.(i) :: !acc;
      if deploy_enabled m s i then acc := m.moves.deploy.(i) :: !acc
    done;
    !acc

  (* Singleton ample sets over commuting per-chain moves. A conforming
     protocol move [m'] may be explored alone when nothing enabled (or
     enabled before [m'] fires) is dependent with it:

     - the fault budget is spent, so no crash of [m']'s actor can precede
       it (crashes are dependent with every move of that party);
     - for AC3WN the witness has decided, so no witness move can flip the
       gate [m'] reads (and deploys read the undecided gate too);
     - no other enabled move touches the same edge (the only co-enabled
       same-edge pair is Redeem/Refund after expiry);
     - [Expire] is never co-enabled with a protocol move (maximal
       progress), and executing [m'] keeps it disabled.

     Every component of the state evolves monotonically, so the state
     graph is a DAG and the ignoring problem (cycle condition) is moot.
     Interleavings of the remaining commuting moves still collapse by
     state hashing; the reduction removes the transitions themselves. *)

  let same_edge a b =
    match (a, b) with
    | (Deploy i | Redeem i | Refund i), (Deploy j | Redeem j | Refund j) -> i = j
    | _ -> false

  let reduced m s =
    let moves = enabled m s in
    let reducible =
      Global_state.crashes_left s = 0
      && (m.profile = Flow.Single_leader || Global_state.decision s <> Protocol.Undecided)
    in
    if not reducible then (moves, 0)
    else
      let is_protocol = function Deploy _ | Redeem _ | Refund _ -> true | _ -> false in
      let candidate =
        List.find_opt
          (fun mv ->
            is_protocol mv
            && not (List.exists (fun other -> other != mv && same_edge mv other) moves))
          moves
      in
      match candidate with
      | Some mv -> ([ mv ], List.length moves - 1)
      | None -> (moves, 0)
end

(* [Model] is the model checker's exploration as it stood before the
   dense id-indexed store: node and successor tables in polymorphic
   [Hashtbl]s keyed by id, a [Buffer]-built state key, and an [apply]
   that copies all three state arrays on every move. Kept verbatim
   except that a state is handled as its decoded components ([parts]):
   [key], [revive] and [apply] decode the packed state, work on fresh
   arrays and re-encode with [Global_state.make], so they share no code
   with the byte setters of [Ac3_model.Semantics.apply]. test_model.ml
   holds [Ac3_model.Explore] to the same ids, BFS tree, successor lists
   and statistics. *)
module Model = struct
  module Semantics = Ac3_model.Semantics
  module Global_state = Ac3_model.Global_state
  module Swap_template = Ac3_contract.Swap_template
  open Semantics

  type parts = {
    edges : Swap_template.status array;
    knows : bool array;
    alive : bool array;
    time : int;
    decision : Ac3_flow.Protocol.decision;
    crashes_left : int;
  }

  let decode s =
    let np = Global_state.n_parties s in
    {
      edges = Array.init (Global_state.n_edges s) (Global_state.edge s);
      knows = Array.init np (Global_state.knows s);
      alive = Array.init np (Global_state.alive s);
      time = Global_state.time s;
      decision = Global_state.decision s;
      crashes_left = Global_state.crashes_left s;
    }

  let encode p =
    Global_state.make ~edges:p.edges ~knows:p.knows ~alive:p.alive ~time:p.time
      ~decision:p.decision ~crashes_left:p.crashes_left

  let status_char = Global_state.status_char

  let decision_char = Global_state.decision_char

  let key state =
    let s = decode state in
    let b = Buffer.create 64 in
    Array.iter (fun e -> Buffer.add_char b (status_char e)) s.edges;
    Buffer.add_char b '|';
    Array.iter (fun k -> Buffer.add_char b (if k then '1' else '0')) s.knows;
    Buffer.add_char b '|';
    Array.iter (fun a -> Buffer.add_char b (if a then '1' else '0')) s.alive;
    Buffer.add_char b '|';
    Buffer.add_string b (string_of_int s.time);
    Buffer.add_char b (decision_char s.decision);
    Buffer.add_string b (string_of_int s.crashes_left);
    Buffer.contents b

  let revive state =
    let s = decode state in
    encode
      {
        s with
        alive = Array.map (fun _ -> true) s.alive;
        crashes_left = 0;
      }

  let apply m state move =
    let s = decode state in
    encode
    @@
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
    | W_commit -> { base with decision = Ac3_flow.Protocol.Commit }
    | W_abort -> { base with decision = Ac3_flow.Protocol.Abort }

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
      let moves, skipped = Enabledness.reduced model n.state in
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
            Swap_template.settled (decode state).edges
            ||
            let moves, _ = Enabledness.reduced t.model state in
            List.exists (fun move -> go (apply t.model state move)) moves
          in
          Hashtbl.replace memo k v;
          v
    in
    go
end

(* [M003] is the model checker's M003 victim search as it stood before
   the one-pass bitmask scan: for each party in turn, one scan over all
   edges for a redeemed outgoing edge and one for a refunded incoming
   edge, stopping at the first party that has both. test_model.ml holds
   [Ac3_model.Rules.unsafe_party] to the same party index. *)
module M003 = struct
  module Semantics = Ac3_model.Semantics
  module Global_state = Ac3_model.Global_state
  module Swap_template = Ac3_contract.Swap_template

  (* Some edge [j >= i] with endpoint [ends.(j) = p] has status [st]. *)
  let rec touches ends s st p i =
    i < Global_state.n_edges s
    && ((ends.(i) = p && Global_state.edge s i = st) || touches ends s st p (i + 1))

  (* The lowest unsafe party index from [p] on, or -1. *)
  let rec unsafe_from m s p =
    if p >= Global_state.n_parties s then -1
    else if
      touches m.Semantics.edge_from s Swap_template.Redeemed p 0
      && touches m.Semantics.edge_to s Swap_template.Refunded p 0
    then p
    else unsafe_from m s (p + 1)

  let unsafe_party m s = unsafe_from m s 0
end

(* [Wallet_select] is [Ac3_chain.Wallet]'s coin selection and refusal
   message as they stood before the summing pre-pass: one greedy walk
   over the outpoint-sorted coins that also totals a refusal's
   spendable and locked amounts, the message formatted with [Printf].
   Kept verbatim except that it takes a node and an address rather than
   a wallet, so test_chain.ml can hold [Wallet.build] to the same coins,
   change and refusal bytes. *)
module Wallet_select = struct
  open Ac3_chain

  let select_coins node addr ~total =
    let mempool = Node.mempool node in
    let rec pick acc covered locked = function
      | _ when Amount.compare covered total >= 0 -> Ok (List.rev acc, Amount.(covered - total))
      | [] -> Error (covered, locked)
      | (op, (o : Tx.output)) :: rest ->
          if Mempool.spends mempool op then pick acc covered Amount.(locked + o.amount) rest
          else pick (op :: acc) Amount.(covered + o.amount) locked rest
    in
    pick [] Amount.zero Amount.zero (Ledger.utxos_of (Node.ledger node) addr)

  let build node addr ~total =
    match select_coins node addr ~total with
    | Error (spendable, locked) ->
        Error
          (Printf.sprintf
             "insufficient funds: need %s, have %s spendable (%s locked by pending spends)"
             (Amount.to_string total) (Amount.to_string spendable) (Amount.to_string locked))
    | Ok selection -> Ok selection
end

(* [Store_depth] is [Ac3_chain.Store]'s two depth queries as they stood
   before the store kept its tip height in a field and each indexed
   transaction's height in its index entry: the tip height read off the
   tip block, and a transaction's depth through [Store.find_tx]'s block
   (a probe of the tx index, then of the block table). test_chain.ml
   holds [Store.tip_height] and [Store.confirmations] to them over
   random block trees with reorgs. *)
module Store_depth = struct
  open Ac3_chain

  let tip_height store = (Store.tip store).Block.header.Block.height

  let confirmations store txid =
    match Store.find_tx store txid with
    | None -> 0
    | Some (block, _) -> tip_height store - block.Block.header.Block.height + 1
end

(* [Mss_keygen] is MSS key generation as it stood before the lane
   kernel: one WOTS key per leaf, its 67 secret elements expanded one
   [Drbg.expand_prk] at a time and its chains walked per key. Kept
   verbatim from [Mss.build_material] and [Wots.public] except [walk],
   which hashes every step with its own [Sha256.digest] instead of
   calling the chain kernel, so the oracle shares no code with the
   batched builder it checks (test_crypto.ml), and [auth_path], which
   reads a material rather than a signer. *)
module Mss_keygen = struct
  open Ac3_crypto

  let w = 16

  let num_chains = 67

  type secret = { tag : string; prk : Drbg.prk }

  let walk tag ~from_ ~to_ xs =
    Array.mapi
      (fun i x ->
        let v = ref x in
        for s = from_ i to to_ i - 1 do
          v :=
            Sha256.digest
              (Codec.encode
                 (fun w () ->
                   Codec.Writer.string w "wots-step";
                   Codec.Writer.string w tag;
                   Codec.Writer.u16 w i;
                   Codec.Writer.u16 w s;
                   Codec.Writer.fixed w ~len:32 !v)
                 ())
        done;
        !v)
      xs

  let sk_element { prk; _ } i = Drbg.expand_prk prk i

  let generate ~seed ~tag = { tag; prk = Drbg.prk ~seed ~label:("wots:" ^ tag) }

  let secret_elements sk = Array.init num_chains (sk_element sk)

  let chain_tops sk = walk sk.tag ~from_:(fun _ -> 0) ~to_:(fun _ -> w - 1) (secret_elements sk)

  let public_of_tops ~tag tops =
    let ctx = Sha256.init () in
    Sha256.feed_string ctx "wots-pk";
    Sha256.feed_string ctx tag;
    Array.iter (Sha256.feed_string ctx) tops;
    Sha256.finalize ctx

  let public sk = public_of_tops ~tag:sk.tag (chain_tops sk)

  type material = {
    leaf_secrets : secret array;
    leaf_publics : string array;
    (* tree.(0) = leaf hashes, tree.(height) = [| root |] *)
    tree : string array array;
  }

  let leaf_tag i = Printf.sprintf "mss-leaf:%d" i

  let leaf_hash pk = Sha256.digest_list [ "mss-leaf-hash"; pk ]

  let node_hash l r = Sha256.digest_list [ "mss-node"; l; r ]

  let build_material ~height ~seed =
    let n = 1 lsl height in
    let leaf_secrets = Array.init n (fun i -> generate ~seed ~tag:(leaf_tag i)) in
    let leaf_publics = Array.map public leaf_secrets in
    let tree = Array.make (height + 1) [||] in
    tree.(0) <- Array.map leaf_hash leaf_publics;
    for level = 1 to height do
      let below = tree.(level - 1) in
      tree.(level) <-
        Array.init (Array.length below / 2) (fun i -> node_hash below.(2 * i) below.((2 * i) + 1))
    done;
    { leaf_secrets; leaf_publics; tree }

  let auth_path m ~height index =
    Array.init height (fun level ->
        let i = index lsr level in
        m.tree.(level).(i lxor 1))
end
