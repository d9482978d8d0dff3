(** Winternitz one-time signatures (w = 16) over SHA-256.

    One-time: a key must sign at most one message. The [tag] domain-
    separates chains between key pairs (MSS uses the leaf index). *)

type secret

(** 32-byte public key. *)
type public = string

type signature = string array

(** Deterministic key from [seed], domain-separated by [tag]. *)
val generate : seed:string -> tag:string -> secret

(** The public keys of many secrets, generated together: keys whose
    tags have equal length share kernel calls of up to 16 keys (1072
    chains) each. [publics sks = Array.map public sks]. *)
val publics : secret array -> public array

(** [public sk = (publics [| sk |]).(0)]. *)
val public : secret -> public

val sign : secret -> string -> signature

val verify : tag:string -> public -> string -> signature -> bool

(** Public key implied by a signature on [msg]; [None] if malformed.
    Used by MSS to recompute leaf values. *)
val public_from_signature : tag:string -> string -> signature -> public option

val encode_signature : Codec.Writer.t -> signature -> unit

val decode_signature : Codec.Reader.t -> signature
