(** Reference to a transaction output: (txid, output index). *)

type t = { txid : string; index : int }

(** Raises [Invalid_argument] unless [txid] is 32 bytes and [index >= 0]. *)
val create : txid:string -> index:int -> t

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val encode : Ac3_crypto.Codec.Writer.t -> t -> unit

val decode : Ac3_crypto.Codec.Reader.t -> t

module Map : Map.S with type key = t

module Table : Hashtbl.S with type key = t
