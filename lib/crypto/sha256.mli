(** SHA-256 (FIPS 180-4). Digests are 32-byte strings.

    The compression function runs in C — on the x86 SHA extensions when
    the CPU has them, through a portable scalar loop otherwise. Both
    compute the identical FIPS 180-4 function; digest values never
    depend on which path ran. *)

type ctx

(** Whether this machine's CPU provides the SHA extensions (reporting
    only — the digest value is the same either way). *)
val shani_available : unit -> bool

(** Fresh streaming context. *)
val init : unit -> ctx

(** Feed a chunk into the context. *)
val feed_string : ctx -> string -> unit

(** Finish and return the 32-byte digest. The context is left ready for
    [restore] or re-feeding after a reset by its owner; treat it as
    spent unless you explicitly restore it. *)
val finalize : ctx -> string

(** Independent copy of a context — capture a midstate once, replay it
    many times (HMAC key pads, fixed message prefixes). *)
val copy : ctx -> ctx

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

(** [digest_pair a b = (digest a, digest b)], computed through the
    2-lane compression the batched kernels below run on. *)
val digest_pair : string -> string -> string * string

(** [wots_chains frames ~frame_len ranges] walks n = [Array.length
    ranges / 2] WOTS hash chains in one C call. [frames] holds n frames
    of [frame_len] bytes; frame i is the message of chain i's steps and
    ends [u16 chain | u16 step | 32-byte x], where the kernel writes
    chain = i and step = s itself. Chain i runs steps [s = from_i, ...,
    to_i - 1] with [from_i = ranges.(2i)], [to_i = ranges.(2i+1)]: each
    step replaces x by the digest of the frame. On return frame i's x
    holds the chain's end value (unchanged when [from_i >= to_i]).
    Raises [Invalid_argument] if [frame_len] exceeds 119 bytes (the
    kernel's two-block bound), if the lengths disagree, or if a range
    bound lies outside [0, 65536]. *)
val wots_chains : Bytes.t -> frame_len:int -> int array -> unit

(** [grind_pow header ~target ~first ~count] is the lowest nonce [n] in
    [first, first + count) such that the double SHA-256 of [header],
    with its last 8 bytes replaced by [n] big-endian, is at or below
    [target] as a 256-bit big-endian number; [None] if there is none,
    and always [None] when [target] is not 32 bytes. The constant
    prefix is hashed once as a midstate. *)
val grind_pow : string -> target:string -> first:int -> count:int -> int option
