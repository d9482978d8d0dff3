(** The ledger: UTXO set plus contract store, with checked block
    application and exact undo for reorganizations. *)

type contract = {
  code_id : string;
  state : Value.t;
  balance : Amount.t;
}

type t

(** Opaque undo record produced by {!apply_block}. *)
type undo

type event = { contract_id : string; name : string; payload : Value.t }

val create : params:Params.t -> registry:Contract_iface.registry -> t

(** Height of the last applied block; -1 when only empty. *)
val height : t -> int

val utxo : t -> Outpoint.t -> Tx.output option

val contract : t -> string -> contract option

(** Sum of UTXOs owned by [addr]. Served from a per-address index, so
    the cost scales with the owner's coins, not the whole UTXO set. *)
val balance_of : t -> string -> Amount.t

(** All UTXOs owned by [addr], sorted by outpoint. Indexed like
    {!balance_of}. *)
val utxos_of : t -> string -> (Outpoint.t * Tx.output) list

(** [fold_utxos_of t addr f init] folds [f] over the UTXOs owned by
    [addr] in unspecified order, without building a list: for
    order-insensitive callers such as sums. Indexed like
    {!balance_of}. *)
val fold_utxos_of : t -> string -> (Outpoint.t -> Tx.output -> 'a -> 'a) -> 'a -> 'a

(** UTXO total plus contract balances; grows only by block rewards. *)
val total_supply : t -> Amount.t

(** The most a coinbase over these transactions may pay: the block
    reward plus their fees. {!apply_block} refuses a coinbase paying
    more. *)
val max_reward : Params.t -> Tx.t list -> Amount.t

(** Apply a structurally valid block. Validates and executes every
    transaction (signatures, ownership, conservation, contract code) and
    returns undo data plus emitted contract events. On [Error] the ledger
    is unchanged. *)
val apply_block : t -> Block.t -> (undo * event list, string) result

(** Exactly reverse a block applied last. *)
val undo_block : t -> undo -> unit

(** Would this transaction apply on the current state? Leaves the ledger
    unchanged. Used by the mempool. *)
val check_tx : t -> block_time:float -> Tx.t -> (unit, string) result

(** Greedy block assembly: the subset of candidates (in order) that applies
    consistently on the current state. Leaves the ledger unchanged. *)
val select_valid : t -> block_height:int -> block_time:float -> Tx.t list -> Tx.t list

(** Canonical digest of the entire ledger state; equal digests mean equal
    state (used by reorg-equivalence property tests). *)
val state_digest : t -> string
