(** Per-chain parameters, with presets matching the chains the paper's
    evaluation cites. *)

type t = {
  chain_id : string;
  symbol : string;
  block_interval : float;
  block_capacity : int;
  pow_bits : int;
  confirm_depth : int;
  block_reward : Amount.t;
  transfer_fee : Amount.t;
  deploy_fee : Amount.t;
  call_fee : Amount.t;
  verify_signatures : bool;
  mempool_capacity : int option;
      (** [None]: unbounded (historical behavior). [Some n]: the node's
          mempool holds at most [n] transactions and evicts the lowest
          (class, fee) entry under overload — see {!Mempool.add}. *)
  premine : (string * Amount.t) list;
  regular_blocks : bool;
}

val make :
  ?symbol:string ->
  ?block_interval:float ->
  ?block_capacity:int ->
  ?pow_bits:int ->
  ?confirm_depth:int ->
  ?block_reward:Amount.t ->
  ?transfer_fee:Amount.t ->
  ?deploy_fee:Amount.t ->
  ?call_fee:Amount.t ->
  ?verify_signatures:bool ->
  ?mempool_capacity:int ->
  ?premine:(string * Amount.t) list ->
  ?regular_blocks:bool ->
  string ->
  t

(** Δ of Sec 6.1: confirmation depth x block interval, the expected
    time until a transaction sits at its confirmation depth. *)
val delta : t -> float

(** Transactions per second implied by capacity / interval. *)
val tps : t -> float

(** Minimum fee for a payload kind ([fd] for deploys, [ffc] for calls). *)
val required_fee : t -> Tx.payload -> Amount.t

(** Bitcoin: 600 s blocks, 7 tps, d = 6. [scale] shrinks intervals. *)
val bitcoin : ?scale:float -> unit -> t

(** Ethereum: 15 s blocks, 25 tps, d = 12. *)
val ethereum : ?scale:float -> unit -> t

(** Litecoin: 150 s blocks, 56 tps, d = 6. *)
val litecoin : ?scale:float -> unit -> t

(** Bitcoin Cash: 600 s blocks, 61 tps, d = 6. *)
val bitcoin_cash : ?scale:float -> unit -> t
