(** Trent: the centralized trusted witness of AC3TW (paper Sec 4.1).

    Holds a key/value store from registered ms(D) to his decision
    signature; at most one of T(ms(D), RD) and T(ms(D), RF) is ever
    issued per transaction. *)

module Keys = Ac3_crypto.Keys
module Multisig = Ac3_crypto.Multisig
module Ac2t = Ac3_contract.Ac2t

type decision = Redeem_signed of Keys.signature | Refund_signed of Keys.signature

type t

val create : Universe.t -> name:string -> t

val public : t -> Keys.public

(** Take Trent offline (crash / denial of service): all requests fail
    and undecided transactions stay locked. *)
val crash : t -> unit

val recover : t -> unit

(** Register a multisigned graph; rejects duplicates and invalid
    multisignatures. Returns the store key (the multisignature id). *)
val register : t -> graph:Ac2t.t -> ms:Multisig.t -> (string, string) result

(** Issue (or re-issue) the redemption signature — only if every edge
    contract in [contracts] (graph order) is deployed and correct on its
    chain, and no refund was signed. *)
val request_redeem : t -> ms_id:string -> contracts:string list -> (Keys.signature, string) result

(** Issue (or re-issue) the refund signature — only if no redemption was
    signed. *)
val request_refund : t -> ms_id:string -> (Keys.signature, string) result
