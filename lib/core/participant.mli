(** Protocol participants: an identity with per-chain wallets and a crash
    flag (paper Sec 1 failure model). *)

module Keys = Ac3_crypto.Keys
open Ac3_chain

type t

val create : Universe.t -> identity:Keys.t -> t

val identity : t -> Keys.t

val public : t -> Keys.public

val name : t -> string

val is_crashed : t -> bool

val crash : t -> unit

val recover : t -> unit

(** Wallet on a chain, attached on first use. *)
val wallet : t -> string -> Wallet.t

val balance_on : t -> string -> Amount.t
