(** Mempool: pending transactions in arrival order.

    Optionally bounded: a pool built with [~capacity] evicts the lowest
    (class, fee) resident when a strictly better-paying transaction
    arrives at a full pool, where the class order is
    Call > Deploy > Transfer — settlement transactions (contract calls
    such as redeem/refund) are never displaced by transfer spam. *)

type t

(** [create ?capacity ()]. Omitting [capacity] gives the historical
    unbounded pool. Raises [Invalid_argument] when [capacity < 1]. *)
val create : ?capacity:int -> unit -> t

val size : t -> int

val mem : t -> string -> bool

(** [spends t outpoint] is [true] iff some transaction in the pool
    consumes [outpoint]. O(1); lets wallets avoid promising the same
    coin to two pending transactions without scanning the pool. *)
val spends : t -> Outpoint.t -> bool

(** Insert; [Ok evicted] lists the transactions displaced to make room
    (empty for unbounded pools, at most one otherwise). [Error] on
    duplicates and when a full pool holds only equal-or-better entries.
    Ledger-level validity is the node's responsibility. *)
val add : t -> Tx.t -> (Tx.t list, string) result

val remove : t -> string -> unit

(** Up to [limit] transactions, oldest first. *)
val candidates : t -> limit:int -> Tx.t list
