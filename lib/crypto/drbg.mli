(** Deterministic random byte generation from a seed (HMAC-SHA256 counter
    mode). Reproducible key material for the signature schemes. *)

type t

(** [create ~seed ~label] starts a stream bound to [label]. *)
val create : seed:string -> label:string -> t

(** [bytes t n] returns the next [n] bytes of the stream. *)
val bytes : t -> int -> string

(** [expand ~seed ~label i] is the [i]-th 32-byte block of the stream
    derived from [seed] and [label], computed statelessly. *)
val expand : seed:string -> label:string -> int -> string

(** Precomputed expansion key for a fixed (seed, label):
    [expand_prk (prk ~seed ~label) i = expand ~seed ~label i] bit for
    bit, at half the compression cost per call. Its
    {!Hmac.pad_states} let {!Sha256.wots_chains} compute [expand_prk]
    for many indices and keys at once in the lane kernel. *)
type prk = Hmac.prk

val prk : seed:string -> label:string -> prk

val expand_prk : prk -> int -> string
