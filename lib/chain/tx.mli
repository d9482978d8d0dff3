(** Transactions: UTXO spends, asset merge/split, contract deployment and
    contract calls (paper Sec 2.3). The chain id is part of the signed
    body, preventing cross-chain replay. *)

module Keys = Ac3_crypto.Keys

type output = { addr : string; amount : Amount.t }

type input = { outpoint : Outpoint.t; pubkey : Keys.public }

type payload =
  | Transfer
  | Deploy of { code_id : string; args : Value.t; deposit : Amount.t }
  | Call of { contract_id : string; fn : string; args : Value.t; deposit : Amount.t }
  | Coinbase of { height : int }

(** Immutable; build one only through the constructors below, which
    fix both ids from a single serialization of the body. *)
type t = private {
  chain : string;
  inputs : input list;
  witnesses : Keys.signature list;  (** parallel to [inputs] *)
  outputs : output list;
  payload : payload;
  fee : Amount.t;
  nonce : int64;
  txid : string;  (** see {!txid} *)
  sighash : string;  (** see {!sighash} *)
}

(** Hash every signature commits to (body without witnesses). *)
val sighash : t -> string

(** 32-byte transaction id (double SHA-256 of the full encoding). *)
val txid : t -> string

val encode : Ac3_crypto.Codec.Writer.t -> t -> unit

val decode : Ac3_crypto.Codec.Reader.t -> t

val to_bytes : t -> string

(** Raises {!Ac3_crypto.Codec.Decode_error} on malformed input. *)
val of_bytes : string -> t

(** Sum of declared outputs. *)
val output_total : t -> Amount.t

(** Asset value locked into a contract by this transaction (zero unless
    Deploy/Call). *)
val deposit : t -> Amount.t

val is_coinbase : t -> bool

(** [make ~chain ~inputs ~outputs ?payload ~fee ~nonce ()] builds and signs
    a transaction; [inputs] pairs each spent outpoint with the identity
    that owns it. *)
val make :
  chain:string ->
  inputs:(Outpoint.t * Keys.t) list ->
  outputs:output list ->
  ?payload:payload ->
  fee:Amount.t ->
  nonce:int64 ->
  unit ->
  t

(** Unsigned transaction (no witnesses); valid only on chains with
    [verify_signatures = false] — used by throughput stress benches. *)
val make_unsigned :
  chain:string ->
  inputs:(Outpoint.t * Keys.public) list ->
  outputs:output list ->
  ?payload:payload ->
  fee:Amount.t ->
  nonce:int64 ->
  unit ->
  t

(** Miner reward transaction; the only transaction allowed no inputs. *)
val coinbase : chain:string -> height:int -> miner_addr:string -> reward:Amount.t -> t

(** The genesis coinbase (height 0), paying each premined output. *)
val genesis : chain:string -> premine:(string * Amount.t) list -> t

(** Any transaction, witnesses taken as given and not checked — how
    tests build tampered or re-labelled transactions. *)
val raw :
  chain:string ->
  inputs:input list ->
  witnesses:Keys.signature list ->
  outputs:output list ->
  payload:payload ->
  fee:Amount.t ->
  nonce:int64 ->
  t

(** One valid witness per input under the claimed public keys. *)
val verify_signatures : t -> bool
