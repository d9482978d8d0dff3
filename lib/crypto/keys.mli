(** End-user identities over the MSS many-time signature scheme.

    Deterministic from a label; key material is memoized by
    (label, height). Each identity can produce [2^height] signatures. *)

type public = string

type signature = Mss.signature

type t

(** Address length in bytes (truncated public-key hash). *)
val address_len : int

(** [create ?height label] is the identity for [label]. Repeated calls
    with the same label share the (stateful) signing key. The memo
    table is mutex-protected, so concurrent domains may create
    identities freely; note that {!sign} on one shared identity is
    still a single-domain affair (the signature counter is not
    atomic) — parallel runs use {!fresh} or per-task labels. *)
val create : ?height:int -> string -> t

(** Like {!create} but never memoized: a full, unconsumed signature
    budget on every call. For repeated identical runs (chaos replays)
    that must not share signature-counter state. *)
val fresh : ?height:int -> string -> t

val label : t -> string

val public : t -> public

(** 20-byte address derived from the public key. *)
val address : t -> string

val address_of_public : public -> string

(** Signatures left before the key is exhausted. *)
val remaining_signatures : t -> int

(** Sign a message. Raises {!Mss.Key_exhausted} when the key is spent. *)
val sign : t -> string -> signature

(** Verify a signature. Verdicts are memoized by the full
    (pk, msg, signature) serialization — see {!Ac3_fast.Memo}. *)
val verify : public -> string -> signature -> bool

val encode_signature : Codec.Writer.t -> signature -> unit

val decode_signature : Codec.Reader.t -> signature
