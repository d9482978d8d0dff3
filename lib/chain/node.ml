(* A full node: block store + mempool + gossip handling.

   Nodes validate and relay blocks and transactions, maintain their
   mempool across reorganizations, and can crash (stop processing
   messages) and recover — the failure model of the paper's Sec 1. *)

module Engine = Ac3_sim.Engine
module Hex = Ac3_crypto.Hex
module Metrics = Ac3_obs.Metrics

let src = Logs.Src.create "ac3.node" ~doc:"blockchain node"

module Log = (val Logs.src_log src : Logs.LOG)

(* Per-chain instruments; nodes of one chain share them (the registry
   dedupes by (name, labels)), so counts aggregate over the chain's
   nodes. *)
type meters = {
  blocks_accepted : Metrics.counter;
  blocks_orphaned : Metrics.counter;
  blocks_rejected : Metrics.counter;
  txs_accepted : Metrics.counter;
  txs_rejected : Metrics.counter;
  reorgs : Metrics.counter;
  reorg_depth : Metrics.histogram;
  propagation : Metrics.histogram;
  evicted_mined : Metrics.counter;
  evicted_overflow : Metrics.counter;
  resurrected : Metrics.counter;
}

let meters_of metrics ~chain =
  let labels = [ ("chain", chain) ] in
  let c name = Metrics.counter metrics ~labels name in
  let h ~hi ~buckets name = Metrics.histogram metrics ~labels ~lo:0.0 ~hi ~buckets name in
  {
    blocks_accepted = c "chain.block.accepted";
    blocks_orphaned = c "chain.block.orphaned";
    blocks_rejected = c "chain.block.rejected";
    txs_accepted = c "chain.tx.accepted";
    txs_rejected = c "chain.tx.rejected";
    reorgs = c "chain.reorgs";
    reorg_depth = h ~hi:20.0 ~buckets:20 "chain.reorg.depth";
    propagation = h ~hi:30.0 ~buckets:30 "chain.block.propagation_delay";
    evicted_mined = c "chain.mempool.evicted_mined";
    evicted_overflow = c "chain.mempool.evicted_overflow";
    resurrected = c "chain.mempool.resurrected";
  }

type t = {
  id : string;
  engine : Engine.t;
  network : Network.t;
  store : Store.t;
  mempool : Mempool.t;
  meters : meters;
  mutable crashed : bool;
  (* Everything seen (even invalid), to stop relay loops. *)
  seen : (string, unit) Hashtbl.t;
}

let rec create ~engine ~network ~params ~registry ?metrics id =
  let store = Store.create ~params ~registry in
  let mempool = Mempool.create ?capacity:params.Params.mempool_capacity () in
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ~enabled:false ()
  in
  let meters = meters_of metrics ~chain:params.Params.chain_id in
  let t =
    { id; engine; network; store; mempool; meters; crashed = false; seen = Hashtbl.create 256 }
  in
  (* Keep the mempool consistent across reorgs: drop what got mined,
     resurrect what fell out. *)
  Store.set_on_reorg store (fun ~connected ~disconnected ->
      List.iter
        (fun (b : Block.t) ->
          List.iter
            (fun tx ->
              if Mempool.mem mempool (Tx.txid tx) then Metrics.incr meters.evicted_mined;
              Mempool.remove mempool (Tx.txid tx))
            b.Block.txs)
        connected;
      List.iter
        (fun (b : Block.t) ->
          List.iter
            (fun tx ->
              if not (Tx.is_coinbase tx) then
                match Mempool.add mempool tx with
                | Ok evicted ->
                    Metrics.incr meters.resurrected;
                    List.iter (fun _ -> Metrics.incr meters.evicted_overflow) evicted
                | Error _ -> ())
            b.Block.txs)
        disconnected);
  Network.register network ~id (fun msg ->
      if not t.crashed then
        match msg with
        | Network.Block_msg b -> ignore (handle_block t b)
        | Network.Tx_msg tx -> ignore (handle_tx t tx)
        | Network.Block_request { requester; hash } -> (
            match Store.find t.store hash with
            | Some b -> Network.send t.network ~from:t.id ~to_:requester (Network.Block_msg b)
            | None -> ()));
  t

and handle_block t block =
  let hash = Block.hash block in
  if Hashtbl.mem t.seen hash then `Known
  else begin
    Hashtbl.replace t.seen hash ();
    match Store.add_block t.store block with
    | Store.Added { disconnected; _ } ->
        Metrics.incr t.meters.blocks_accepted;
        Metrics.observe t.meters.propagation
          (Engine.now t.engine -. block.Block.header.Block.time);
        if disconnected <> [] then begin
          Metrics.incr t.meters.reorgs;
          Metrics.observe t.meters.reorg_depth (float_of_int (List.length disconnected))
        end;
        Network.broadcast t.network ~from:t.id (Network.Block_msg block);
        `Accepted
    | Store.Orphaned ->
        Metrics.incr t.meters.blocks_orphaned;
        (* Relay, and ask peers for the missing ancestor so a node that was
           crashed or partitioned can catch up. *)
        Network.broadcast t.network ~from:t.id (Network.Block_msg block);
        Network.broadcast t.network ~from:t.id
          (Network.Block_request { requester = t.id; hash = block.Block.header.Block.parent });
        `Accepted
    | Store.Duplicate -> `Known
    | Store.Invalid reason ->
        Metrics.incr t.meters.blocks_rejected;
        Log.debug (fun m -> m "%s: rejected block %s: %s" t.id (Hex.short hash) reason);
        `Rejected reason
  end

and handle_tx t tx =
  let txid = Tx.txid tx in
  if Hashtbl.mem t.seen txid then `Known
  else begin
    Hashtbl.replace t.seen txid ();
    match Ledger.check_tx (Store.ledger t.store) ~block_time:(Engine.now t.engine) tx with
    | Ok () ->
        Metrics.incr t.meters.txs_accepted;
        (match Mempool.add t.mempool tx with
        | Ok evicted -> List.iter (fun _ -> Metrics.incr t.meters.evicted_overflow) evicted
        | Error _ -> ());
        Network.broadcast t.network ~from:t.id (Network.Tx_msg tx);
        `Accepted
    | Error reason ->
        Metrics.incr t.meters.txs_rejected;
        Log.debug (fun m -> m "%s: rejected tx %s: %s" t.id (Hex.short txid) reason);
        `Rejected reason
  end

let id t = t.id

let store t = t.store

let mempool t = t.mempool

let ledger t = Store.ledger t.store

let params t = Store.params t.store

let is_crashed t = t.crashed

let crash t = t.crashed <- true

let recover t = t.crashed <- false

(* Local submission (e.g. by a wallet attached to this node). *)
let submit_tx t tx = match handle_tx t tx with `Rejected r -> Error r | `Accepted | `Known -> Ok ()

let submit_block t block =
  match handle_block t block with `Rejected r -> Error r | `Accepted | `Known -> Ok ()

(* --- Queries used by participants and witnesses ---------------------- *)

let confirmations t txid = Store.confirmations t.store txid

let contract t cid = Ledger.contract (ledger t) cid

let balance_of t addr = Ledger.balance_of (ledger t) addr

let tip_height t = Store.tip_height t.store
