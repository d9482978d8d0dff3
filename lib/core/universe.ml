(* The cross-chain universe: several independent blockchains sharing one
   virtual clock.

   Each chain gets its own gossip network, full nodes and miners;
   participants and witnesses observe chains through designated nodes.
   The whole universe is deterministic from the seed. *)

module Engine = Ac3_sim.Engine
module Rng = Ac3_sim.Rng
module Trace = Ac3_sim.Trace
module Obs = Ac3_obs.Obs
module Metrics = Ac3_obs.Metrics
open Ac3_chain

type chain = {
  params : Params.t;
  network : Network.t;
  nodes : Node.t array;
  miners : Miner.t array;
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  registry : Contract_iface.registry;
  mutable chains : (string * chain) list;
  trace : Ac3_flow.Protocol.event Trace.t;
  obs : Obs.t;
}

(* [instrument:false] keeps the observability context but makes every
   instrument inert — one boolean check per operation. Either way the
   context never touches the RNG or the engine, so protocol runs are
   byte-identical with metrics on or off. *)
let create ?(seed = 1) ?(instrument = true) () =
  let engine = Engine.create () in
  {
    engine;
    rng = Rng.create seed;
    registry = Ac3_contract.Registry.standard ();
    chains = [];
    trace = Trace.create ();
    obs = Obs.create ~enabled:instrument ~clock:(fun () -> Engine.now engine) ();
  }

let engine t = t.engine

let trace t = t.trace

let obs t = t.obs

let metrics t = t.obs.Obs.metrics

let spans t = t.obs.Obs.spans

let now t = Engine.now t.engine

let record t ?attrs event = Trace.record t.trace ~time:(now t) ?attrs event

(* Spin up a chain: [nodes] full nodes on a fresh network, each mining an
   equal share of the chain's hash power. *)
let add_chain ~nodes t params =
  let id = params.Params.chain_id in
  if List.exists (fun (id', _) -> String.equal id' id) t.chains then
    invalid_arg (Printf.sprintf "Universe: duplicate chain %s" id);
  let network = Network.create ~engine:t.engine ~rng:(Rng.split t.rng) () in
  let node_arr =
    Array.init nodes (fun i ->
        Node.create ~engine:t.engine ~network ~params ~registry:t.registry
          ~metrics:(metrics t)
          (Printf.sprintf "%s/node%d" id i))
  in
  let miners =
    Array.mapi
      (fun index node ->
        Miner.create ~engine:t.engine ~rng:(Rng.split t.rng) ~node
          ~address:(Ac3_crypto.Keys.address (Ac3_crypto.Keys.create ("miner:" ^ Node.id node)))
          ~share:(1.0 /. float_of_int nodes) ~index ~metrics:(metrics t) ())
      node_arr
  in
  Array.iter Miner.start miners;
  let chain = { params; network; nodes = node_arr; miners } in
  t.chains <- t.chains @ [ (id, chain) ];
  chain

let rec find_chain id = function
  | (id', c) :: rest -> if String.equal id' id then c else find_chain id rest
  | [] -> invalid_arg (Printf.sprintf "Universe: unknown chain %s" id)

let chain t id = find_chain id t.chains

let chains t = t.chains

let chain_ids t = List.map fst t.chains

(* The node participants use by default to observe and submit on a
   chain. *)
let gateway t id = (chain t id).nodes.(0)

let params t id = (chain t id).params

let delta t id = Params.delta (params t id)

(* The largest Δ across all chains: the Δ used in the paper's uniform
   latency analysis. *)
let max_delta t =
  List.fold_left (fun acc (id, _) -> max acc (delta t id)) 0.0 t.chains

let run_until t horizon = Engine.run_until t.engine horizon

(* Run until [cond] holds, checking between events, up to [timeout]
   virtual seconds from now. Returns whether the condition was met. *)
let run_while t ~timeout cond =
  let horizon = now t +. timeout in
  ignore (Engine.run ~until:horizon ~stop:(fun () -> cond ()) t.engine);
  cond ()

(* End-of-run harvest: fold the per-chain quantities that are cheapest
   to read once (network traffic, active-chain tx totals, observed vs
   configured throughput) into the metrics registry. Gauges hold
   run-invariant configuration; per-run measurements go into counters
   and histograms so sweep merges stay order-correct. *)
let snapshot_metrics t =
  if Obs.is_enabled t.obs then
    List.iter
      (fun (id, c) ->
        let labels = [ ("chain", id) ] in
        let counter name = Metrics.counter (metrics t) ~labels name in
        let sent, delivered, dropped = Network.stats c.network in
        Metrics.add (counter "chain.net.sent") sent;
        Metrics.add (counter "chain.net.delivered") delivered;
        Metrics.add (counter "chain.net.dropped") dropped;
        let store = Node.store c.nodes.(0) in
        let tip = Store.tip_height store in
        Metrics.add (counter "chain.height") tip;
        let txs = ref 0 in
        for h = 1 to tip do
          match Store.block_at_height store h with
          | Some b ->
              txs :=
                !txs + List.length (List.filter (fun tx -> not (Tx.is_coinbase tx)) b.Block.txs)
          | None -> ()
        done;
        Metrics.add (counter "chain.tx.mined") !txs;
        let capacity_tps =
          float_of_int c.params.Params.block_capacity /. c.params.Params.block_interval
        in
        Metrics.set (Metrics.gauge (metrics t) ~labels "chain.tps.capacity") capacity_tps;
        if now t > 0.0 then
          Metrics.observe
            (Metrics.histogram (metrics t) ~labels ~lo:0.0 ~hi:50.0 ~buckets:25
               "chain.tps.observed")
            (float_of_int !txs /. now t))
      t.chains

(* A stable checkpoint header of a chain: the active block at
   confirmation depth below the tip (or genesis for short chains). *)
let stable_checkpoint t id =
  let node = gateway t id in
  let store = Node.store node in
  let h = max 0 (Store.tip_height store - (params t id).Params.confirm_depth) in
  match Store.block_at_height store h with
  | Some b -> b.Block.header
  | None -> (Store.genesis store).Block.header
