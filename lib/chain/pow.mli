(** Proof of work over 32-byte big-endian targets. *)

(** Target requiring [bits] leading zero bits in the block hash. *)
val target_of_bits : int -> string

(** [meets_target ~hash ~target] compares as 256-bit big-endian numbers. *)
val meets_target : hash:string -> target:string -> bool

(** Expected number of hashes to find a block at this target. *)
val work_of_target : string -> float

(** [grind ~target header] is the lowest nonce from 0 up that, written
    big-endian over the last 8 bytes of the serialized [header], makes
    its double SHA-256 meet [target]. Raises [Failure] when none of the
    first [max_iters] (default 100 000 000) nonces does, which is always
    the case for a target that is not 32 bytes. *)
val grind : ?max_iters:int -> target:string -> string -> int64
