(** SPV light client: header-only chain tracking with Merkle inclusion
    verification at a confirmation depth (paper Sec 4.3). *)

type t

val create : genesis_header:Block.header -> t

val tip_height : t -> int

(** Validate and insert a header ([`Known] for duplicates, [`New_tip]
    when it becomes the most-work tip). *)
val add_header : t -> Block.header -> ([ `Known | `Accepted | `New_tip ], string) result

(** Insert a batch, failing on the first bad header. *)
val add_headers : t -> Block.header list -> (unit, string) result

(** Check [txid] is in the block, on the best chain, at [depth]
    confirmations. *)
val verify_inclusion :
  t ->
  header_hash:string ->
  txid:string ->
  proof:Ac3_crypto.Merkle.proof ->
  depth:int ->
  (unit, string) result
