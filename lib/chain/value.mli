(** Dynamically typed values for smart-contract state and arguments.

    Canonical, codec-able, deterministic — everything a contract stores or
    receives is a {!t}. *)

type t =
  | Unit
  | Bool of bool
  | Int of int64
  | Float of float
  | String of string
  | Bytes of string
  | List of t list
  | Pair of t * t
  | Tagged of string * t

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val encode : Ac3_crypto.Codec.Writer.t -> t -> unit

val decode : Ac3_crypto.Codec.Reader.t -> t

val to_bytes : t -> string

(** Raises {!Ac3_crypto.Codec.Decode_error} on malformed input. *)
val of_bytes : string -> t

val as_int : t -> (int64, string) result

val as_string : t -> (string, string) result

val as_bytes : t -> (string, string) result

val as_list : t -> (t list, string) result

(** [record fields] builds a record-style value from key/value bindings. *)
val record : (string * t) list -> t

(** [field v key] looks up [key] in a record-style value. *)
val field : t -> string -> (t, string) result

(** [set_field v key value] inserts or replaces a binding. *)
val set_field : t -> string -> t -> (t, string) result

(** [let*] for chaining [(_, string) result] computations in contracts. *)
val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
