(** Per-domain scratch buffers of the transaction path ([Codec]'s
    writer, [Wots]'s chain frames, [Hmac]'s context): built once per
    domain and reused, so no call allocates a transient buffer over the
    2 KB that OCaml allocates in the minor heap. Each buffer belongs to
    the one function named with it and is valid until this domain's next
    call of that function. The module is private to this library. *)

(** [Codec]'s writer storage. [codec_take ()] is [None] while an encoder
    holds it (a nested encode, which then needs a fresh writer);
    otherwise it marks the storage held and returns it. *)
val codec_take : unit -> Bytes.t option

(** [codec_give b] hands the storage back, as [b], which may be a larger
    buffer the writer grew into, and frees it for the next encode. *)
val codec_give : Bytes.t -> unit

(** [Wots.walk]'s chain frames, at least this many bytes long. *)
val wots_frames : int -> Bytes.t

(** [Wots.walk]'s chain ranges, at least this many words long. *)
val wots_ranges : int -> int array

(** [Hmac.mac_prk]'s context. *)
val mac : unit -> Sha256.ctx
