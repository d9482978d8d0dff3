(** HMAC-SHA256 (RFC 2104). *)

(** [mac ~key msg] is the 32-byte HMAC tag. *)
val mac : key:string -> string -> string

(** Constant-time equality on equal-length strings. *)
val equal : string -> string -> bool

(** Precomputed key midstates: the two pad compressions captured once,
    replayed per message. [mac_prk (precompute ~key) msg = mac ~key msg]
    bit for bit. *)
type prk

val precompute : key:string -> prk

val mac_prk : prk -> string -> string

(** The two midstates as 16 words, inner pad's H0..H7 then outer pad's:
    the form in which the lane kernels take an HMAC key
    ({!Sha256.wots_chains}). *)
val pad_states : prk -> int array
