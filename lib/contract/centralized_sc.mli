(** Algorithm 2: the swap contract of the AC3TW protocol (Sec 4.1).

    Both commitment schemes are the pair (ms(D), PK_Trent); Trent's
    signature over (ms(D), RD) redeems, over (ms(D), RF) refunds. *)

module Keys = Ac3_crypto.Keys
open Ac3_chain

val code_id : string

(** The bytes Trent signs for a decision on a registered ms(D). *)
val decision_message : ms_id:string -> [ `Redeem | `Refund ] -> string

module Code : Contract_iface.CODE

(** Constructor arguments. *)
val args : recipient_pk:Keys.public -> ms_id:string -> trent_pk:Keys.public -> Value.t

(** Wrap Trent's signature as redeem/refund call arguments. *)
val secret_args : Keys.signature -> Value.t
