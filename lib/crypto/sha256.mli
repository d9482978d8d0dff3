(** SHA-256 (FIPS 180-4). Digests are 32-byte strings.

    The compression function runs in C — on the x86 SHA extensions when
    the CPU has them, through a portable scalar loop otherwise — and the
    batched kernels below run many messages at once, 16 lanes wide on
    AVX-512F. Every path computes the identical FIPS 180-4 function;
    digest values never depend on which path ran. *)

type ctx

(** Whether this machine's CPU provides the SHA extensions (reporting
    only — the digest value is the same either way). *)
val shani_available : unit -> bool

(** Fresh streaming context. *)
val init : unit -> ctx

(** Feed a chunk into the context. *)
val feed_string : ctx -> string -> unit

(** [feed_bytes ctx b off len] feeds bytes [off, off + len) of [b]; the
    bytes are read during the call only. *)
val feed_bytes : ctx -> Bytes.t -> int -> int -> unit

(** Finish and return the 32-byte digest. The context is left ready for
    [restore] or re-feeding after a reset by its owner; treat it as
    spent unless you explicitly restore it. *)
val finalize : ctx -> string

(** H0..H7 of a context fed a whole number of blocks (an HMAC pad
    midstate, say), as the lane kernels take a starting state. Raises
    [Invalid_argument] if a partial block is buffered. *)
val midstate : ctx -> int array

(** Overwrite [dst] with [src]'s state without allocating. *)
val restore : src:ctx -> dst:ctx -> unit

(** One-shot digest of a string. *)
val digest : string -> string

(** Digest of the concatenation of the parts, without materializing it. *)
val digest_list : string list -> string

(** One-shot digest rendered as lowercase hex. *)
val hexdigest : string -> string

(** Double SHA-256 ([digest (digest s)]), as used for Bitcoin-style ids. *)
val digest2 : string -> string

(** [digest_pair a b = (digest a, digest b)], computed in two lanes of
    the lane compression the batched kernels below run on. *)
val digest_pair : string -> string -> string * string

(** [wots_chains ?pads ~chains:n frames ~frame_len ranges] walks n
    WOTS hash chains in one C call, many at a time through the lane
    compression. [frames] starts with n frames of [frame_len] bytes and
    [ranges] with their 2n bounds; either may be longer (a reused
    buffer), and what lies past the n chains is left alone;
    frame i is the message of chain i's steps and ends [u16 chain | u16
    step | 32-byte x]. The caller writes the chain index (the chain's
    position within its own key); the kernel writes step = s itself.
    Chain i runs steps [s = from_i, ..., to_i - 1] with [from_i =
    ranges.(2i)], [to_i = ranges.(2i+1)]: each step replaces x by the
    digest of the frame. On return frame i's x holds the chain's end
    value (the start value when [from_i >= to_i]).

    With [pads], the start values are generated, not read: [pads] holds
    16 words per key, k keys in all, and frames [j*c, (j+1)*c) with [c
    = n / k] belong to key j. Words [16j, 16j+8) and [16j+8, 16j+16)
    are the inner and outer HMAC-SHA256 pad midstates ({!midstate}) of
    key j's expansion key, and frame i's x is first set to the HMAC,
    under key (i / c), of frame i's chain index as 16 lowercase hex
    digits — [Drbg.expand_prk prk chain] bit for bit.

    Raises [Invalid_argument] if [frame_len] exceeds 119 bytes (the
    kernel's two-block bound), if [frames] or [ranges] is short of n
    chains, if a range bound lies outside [0, 65536], or if [pads] is
    not 16 words per key for a key count that divides n. *)
val wots_chains :
  ?pads:int array -> chains:int -> Bytes.t -> frame_len:int -> int array -> unit

(** [grind_pow header ~target ~first ~count] is the lowest nonce [n] in
    [first, first + count) such that the double SHA-256 of [header],
    with its last 8 bytes replaced by [n] big-endian, is at or below
    [target] as a 256-bit big-endian number; [None] if there is none,
    and always [None] when [target] is not 32 bytes. The constant
    prefix is hashed once as a midstate. *)
val grind_pow : string -> target:string -> first:int -> count:int -> int option
