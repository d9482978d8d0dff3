(** Merkle signature scheme: many-time signatures from WOTS one-time keys
    under a Merkle tree. A key of height [h] signs up to [2^h] messages;
    the signer is stateful and raises {!Key_exhausted} beyond that. *)

exception Key_exhausted

type secret

(** 32-byte public key (the Merkle root over the WOTS leaves). *)
type public = string

type signature

(** [generate ?height ~seed ()] builds a deterministic key pair. Cost is
    [2^height] WOTS key generations. Default height 5 (32 signatures). *)
val generate : ?height:int -> seed:string -> unit -> secret

val public : secret -> public

(** Total number of signatures the key can produce. *)
val capacity : secret -> int

(** Signatures left before {!Key_exhausted}. *)
val remaining : secret -> int

(** Sign, consuming the next leaf. Raises {!Key_exhausted} when spent. *)
val sign : secret -> string -> signature

val verify : public -> string -> signature -> bool

val signature_size : signature -> int

val encode_signature : Codec.Writer.t -> signature -> unit

val decode_signature : Codec.Reader.t -> signature
