(** Canonical binary encoding for hashed and signed structures.

    Fixed-width big-endian integers, length-prefixed strings,
    count-prefixed lists. Injective for a fixed schema. *)

exception Decode_error of string

module Writer : sig
  (** A growable byte buffer. *)
  type t

  val create : unit -> t

  val contents : t -> string

  val u8 : t -> int -> unit

  val u16 : t -> int -> unit

  val u32 : t -> int -> unit

  val i64 : t -> int64 -> unit

  (** Native int written as 64-bit. *)
  val int : t -> int -> unit

  val bool : t -> bool -> unit

  (** IEEE-754 bits, so encoding is exact. *)
  val float : t -> float -> unit

  (** Length-prefixed byte string. *)
  val string : t -> string -> unit

  (** Fixed-width byte string (no prefix); raises if the width differs. *)
  val fixed : t -> len:int -> string -> unit

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit

  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
end

module Reader : sig
  type t

  val create : string -> t

  val u8 : t -> int

  val u16 : t -> int

  val u32 : t -> int

  val i64 : t -> int64

  val int : t -> int

  val bool : t -> bool

  val float : t -> float

  val string : t -> string

  val fixed : t -> len:int -> string

  val list : t -> (t -> 'a) -> 'a list

  val option : t -> (t -> 'a) -> 'a option

  (** Raise {!Decode_error} unless the input is fully consumed. *)
  val expect_end : t -> unit

  (** Offset of the next byte to read. *)
  val pos : t -> int

  (** [feed_since r ctx start] feeds the input bytes read since offset
      [start] (from {!pos}) to [ctx], without copying them out. *)
  val feed_since : t -> Sha256.ctx -> int -> unit
end

(** Minimal JSON for human-readable artifacts (chaos fault plans,
    reproducer corpora). Printing is deterministic — fields keep the
    order given, floats round-trip exactly — so serialized plans are
    byte-stable and diffable. Parsing raises {!Decode_error}. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string

  (** Two-space indented, trailing newline — the committed-corpus form. *)
  val to_string_pretty : t -> string

  val of_string : string -> t

  (** Field lookup; raises {!Decode_error} if absent or not an object. *)
  val member : string -> t -> t

  val member_opt : string -> t -> t option

  val to_int : t -> int

  (** Accepts [Int] or [Float]. *)
  val to_float : t -> float

  val to_bool : t -> bool

  val to_str : t -> string

  val to_list : t -> t list
end

(** [encode f v] runs encoder [f] on [v] and returns the bytes. It
    encodes into this domain's scratch writer and copies the result out
    once; an [encode] inside [f] runs on a fresh writer. *)
val encode : (Writer.t -> 'a -> unit) -> 'a -> string

(** [feed ctxs f v] feeds the bytes of [encode f v] to every context of
    [ctxs], straight from the scratch writer: no string is built. *)
val feed : Sha256.ctx list -> (Writer.t -> 'a -> unit) -> 'a -> unit

(** [decode f s] decodes [s] entirely with [f]; raises {!Decode_error} on
    malformed or trailing input. *)
val decode : (Reader.t -> 'a) -> string -> 'a
