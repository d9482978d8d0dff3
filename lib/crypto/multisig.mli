(** Ordered multisignatures: all parties sign one message (Equation 1 of
    the paper, [ms(D)]). *)

type t

val message : t -> string

(** [create ~message ids] has every identity sign [message]. *)
val create : message:string -> Keys.t list -> t

(** Append one more party's signature. *)
val extend : t -> Keys.t -> t

(** [verify ~expected_signers t] checks that exactly the expected set
    signed and every signature is valid. *)
val verify : expected_signers:Keys.public list -> t -> bool

(** Digest identifying the multisignature (witness-store key). *)
val id : t -> string

val encode : Codec.Writer.t -> t -> unit

val decode : Codec.Reader.t -> t

val to_bytes : t -> string

(** Raises {!Codec.Decode_error} on malformed input. *)
val of_bytes : string -> t
