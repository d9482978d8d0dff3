(* Mining process attached to a node.

   Block production is a Poisson process: the miner's next block arrives
   after an exponential delay with mean [interval / share], where [share]
   is this miner's fraction of the chain's hash power. Combining several
   miners yields the chain's configured block interval, and near-
   simultaneous finds on different nodes create natural forks. With
   [regular_blocks], miner [index] of [n] owns every [n]th slot instead, so
   a regular chain never forks. The PoW nonce grinding is real (against
   the chain's low target), so every block carries a verifiable proof of
   work. *)

module Engine = Ac3_sim.Engine
module Rng = Ac3_sim.Rng
module Metrics = Ac3_obs.Metrics

type t = {
  node : Node.t;
  engine : Engine.t;
  rng : Rng.t;
  address : string; (* coinbase payout address *)
  share : float; (* fraction of the chain's total hash power *)
  index : int; (* this miner's slot among the chain's regular miners *)
  mutable running : bool;
  mutable epoch : int; (* bumped by [start]; a timer from an older epoch drops itself *)
  mined_meter : Metrics.counter;
  mempool_depth : Metrics.histogram;
}

let create ~engine ~rng ~node ~address ~share ~index ?metrics () =
  if share <= 0.0 || share > 1.0 then invalid_arg "Miner.create: share must be in (0, 1]";
  let metrics = match metrics with Some m -> m | None -> Metrics.create ~enabled:false () in
  let labels = [ ("chain", (Node.params node).Params.chain_id) ] in
  {
    node;
    engine;
    rng;
    address;
    share;
    index;
    running = false;
    epoch = 0;
    mined_meter = Metrics.counter metrics ~labels "chain.block.mined";
    mempool_depth =
      Metrics.histogram metrics ~labels ~lo:0.0 ~hi:200.0 ~buckets:20 "chain.mempool.depth";
  }

(* The one block builder: [txs] on [parent], under a coinbase paying
   [miner_addr] exactly the ceiling [Ledger.apply_block] enforces. *)
let block ~(params : Params.t) ~parent ~time ~miner_addr txs =
  let height = parent.Block.header.Block.height + 1 in
  let coinbase =
    Tx.coinbase ~chain:params.chain_id ~height ~miner_addr ~reward:(Ledger.max_reward params txs)
  in
  Block.mine ~chain:params.chain_id ~height ~parent:(Block.hash parent) ~time
    ~target:(Pow.target_of_bits params.pow_bits) ~txs:(coinbase :: txs)

(* Assemble a block on the current tip from mempool candidates. *)
let assemble t =
  let params = Node.params t.node in
  let parent = Store.tip (Node.store t.node) in
  let time = Engine.now t.engine in
  Metrics.observe t.mempool_depth (float_of_int (Mempool.size (Node.mempool t.node)));
  let candidates = Mempool.candidates (Node.mempool t.node) ~limit:params.Params.block_capacity in
  let txs =
    Ledger.select_valid (Node.ledger t.node) ~block_height:(parent.Block.header.Block.height + 1)
      ~block_time:time candidates
  in
  block ~params ~parent ~time ~miner_addr:t.address txs

let mine_one t =
  if not (Node.is_crashed t.node) then begin
    let block = assemble t in
    Metrics.incr t.mined_meter;
    ignore (Node.submit_block t.node block)
  end

let start t =
  if not t.running then begin
    t.running <- true;
    t.epoch <- t.epoch + 1;
    let epoch = t.epoch in
    let params = Node.params t.node in
    let mean = params.Params.block_interval /. t.share in
    let next () = if params.Params.regular_blocks then mean else Rng.exponential t.rng ~mean in
    let rec arm delay =
      Engine.schedule t.engine ~delay (fun () ->
          if t.running && t.epoch = epoch then begin
            mine_one t;
            arm (next ())
          end)
    in
    (* Slot k is the instant k * block_interval after [start]. With equal
       shares the period is n slots, and miner [index] mines slots
       index + 1 + n, index + 1 + 2n, ...: one producer per slot. *)
    arm
      (if params.Params.regular_blocks then
         (float_of_int (t.index + 1) *. params.Params.block_interval) +. mean
       else next ())
  end

let stop t = t.running <- false
