(** Hashlock + timelock contract (HTLC): the building block of the Nolan
    and Herlihy baseline protocols. *)

open Ac3_chain

val code_id : string

(** The registered contract code (state machine of Algorithm 1 with
    hashlock/timelock commitments). *)
module Code : Contract_iface.CODE

(** Constructor arguments: lock toward [recipient_pk] under [hashlock],
    refundable to the sender after [timelock]. *)
val args :
  recipient_pk:Ac3_crypto.Keys.public -> hashlock:string -> timelock:float -> Value.t

val hashlock_of_secret : string -> string

val redeem_args : secret:string -> Value.t

val refund_args : Value.t

(** Declared value semantics (Algorithm 1: full-deposit escrow,
    conserving redeem/refund). *)
val econ : Econ.t
