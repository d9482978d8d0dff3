(* Per-chain parameters.

   Presets mirror the public characteristics of the chains the paper's
   evaluation cites (Table 1 throughputs, Bitcoin's 6-blocks/hour rate,
   smart-contract fees of Sec 6.2). Experiments may scale [block_interval]
   down uniformly — all protocol latencies are reported in block/Δ units,
   so the shape of every result is preserved. *)

type t = {
  chain_id : string;
  symbol : string; (* currency symbol, e.g. "BTC" *)
  block_interval : float; (* mean seconds between blocks *)
  block_capacity : int; (* max non-coinbase txs per block (models tps) *)
  pow_bits : int; (* required leading zero bits in the block hash *)
  confirm_depth : int; (* d: blocks burying a tx before it is final *)
  block_reward : Amount.t;
  transfer_fee : Amount.t; (* minimum fee for a plain transfer *)
  deploy_fee : Amount.t; (* fd: smart-contract deployment fee *)
  call_fee : Amount.t; (* ffc: smart-contract function-call fee *)
  verify_signatures : bool; (* simulator knob for throughput stress runs *)
  mempool_capacity : int option; (* None: unbounded; Some n: evict under load *)
  premine : (string * Amount.t) list; (* genesis allocations (address, amount) *)
  (* true: miners produce blocks at fixed intervals instead of a Poisson
     process. Matches the deterministic Δ of the paper's latency model;
     used by the latency experiments. *)
  regular_blocks : bool;
}

let make ?(symbol = "COIN") ?(block_interval = 10.0) ?(block_capacity = 100) ?(pow_bits = 10)
    ?(confirm_depth = 6) ?(block_reward = Amount.of_int 50_000_000)
    ?(transfer_fee = Amount.of_int 100) ?(deploy_fee = Amount.of_int 4000)
    ?(call_fee = Amount.of_int 2000) ?(verify_signatures = true) ?mempool_capacity
    ?(premine = []) ?(regular_blocks = false) chain_id =
  if block_interval <= 0.0 then invalid_arg "Params.make: block_interval must be positive";
  if block_capacity < 1 then invalid_arg "Params.make: block_capacity must be >= 1";
  if pow_bits < 0 || pow_bits > 200 then invalid_arg "Params.make: pow_bits out of range";
  if confirm_depth < 0 then invalid_arg "Params.make: negative confirm_depth";
  (match mempool_capacity with
  | Some c when c < 1 -> invalid_arg "Params.make: mempool_capacity must be >= 1"
  | _ -> ());
  {
    chain_id;
    symbol;
    block_interval;
    block_capacity;
    pow_bits;
    confirm_depth;
    block_reward;
    transfer_fee;
    deploy_fee;
    call_fee;
    verify_signatures;
    mempool_capacity;
    premine;
    regular_blocks;
  }

(* Confirmation latency: how long until a transaction sits at its
   confirmation depth, in expectation. This is the Δ of Sec 6.1. *)
let delta t = float_of_int t.confirm_depth *. t.block_interval

(* Throughput in transactions per second implied by the parameters. *)
let tps t = float_of_int t.block_capacity /. t.block_interval

(* Minimum fee required for a payload kind. *)
let required_fee t (payload : Tx.payload) =
  match payload with
  | Tx.Transfer -> t.transfer_fee
  | Tx.Deploy _ -> t.deploy_fee
  | Tx.Call _ -> t.call_fee
  | Tx.Coinbase _ -> Amount.zero

(* Presets for the top-4 permissionless cryptocurrencies by market cap that
   the paper's Table 1 lists, at [scale] seconds per real second
   (scale = 1.0 reproduces real block intervals). Capacities are chosen so
   capacity / interval matches the cited tps. *)
let bitcoin ?(scale = 1.0) () =
  make "bitcoin" ~symbol:"BTC" ~block_interval:(600.0 *. scale) ~block_capacity:4200
    ~confirm_depth:6

let ethereum ?(scale = 1.0) () =
  make "ethereum" ~symbol:"ETH" ~block_interval:(15.0 *. scale) ~block_capacity:375
    ~confirm_depth:12

let litecoin ?(scale = 1.0) () =
  make "litecoin" ~symbol:"LTC" ~block_interval:(150.0 *. scale) ~block_capacity:8400
    ~confirm_depth:6

let bitcoin_cash ?(scale = 1.0) () =
  make "bitcoin_cash" ~symbol:"BCH" ~block_interval:(600.0 *. scale) ~block_capacity:36600
    ~confirm_depth:6

(* A generic fast chain used as the default witness network in tests. *)
let witness ?(scale = 1.0) ?(confirm_depth = 6) () =
  make "witness" ~symbol:"WIT" ~block_interval:(10.0 *. scale) ~block_capacity:1000
    ~confirm_depth

let pp ppf t =
  Fmt.pf ppf "%s(%s): interval=%.1fs cap=%d tps=%.1f pow=%d d=%d" t.chain_id t.symbol
    t.block_interval t.block_capacity (tps t) t.pow_bits t.confirm_depth
