(** Block store: a node's full block tree, most-work tip selection, and
    reorganizations (longest-chain fork resolution). *)

type t

type add_result =
  | Added of { connected : Block.t list; disconnected : Block.t list }
  | Duplicate
  | Orphaned  (** parent unknown; retried automatically when it arrives *)
  | Invalid of string

(** Fresh store holding only the chain's genesis block. *)
val create : params:Params.t -> registry:Contract_iface.registry -> t

val genesis : t -> Block.t

val params : t -> Params.t

(** Register a callback fired after every successful reorganization with
    the connected and disconnected blocks (oldest-first). *)
val set_on_reorg : t -> (connected:Block.t list -> disconnected:Block.t list -> unit) -> unit

(** The ledger materialized at the active tip. *)
val ledger : t -> Ledger.t

val tip : t -> Block.t

val tip_hash : t -> string

val tip_height : t -> int

(** Lookup by header hash anywhere in the tree. *)
val find : t -> string -> Block.t option

(** Lookup by height on the active chain. *)
val block_at_height : t -> int -> Block.t option

val is_active : t -> string -> bool

(** Transaction lookup on the active chain: (block, index in block). *)
val find_tx : t -> string -> (Block.t * int) option

(** Blocks on top of (and including) the transaction's block; 0 when not
    on the active chain. The paper's depth-d finality measure. *)
val confirmations : t -> string -> int

(** Active-chain headers from height [from_] to the tip, ascending. *)
val headers_from : t -> from_:int -> Block.header list

(** Validate and insert a block, reorganizing if it creates a heavier
    branch. *)
val add_block : t -> Block.t -> add_result

(** First successful call of [fn] on [contract_id] on the active chain:
    (txid, height). Served from an incremental per-contract index that
    survives reorganizations; cost is O(calls on that contract), not a
    scan of the chain. *)
val find_call : t -> contract_id:string -> fn:string -> (string * int) option

(** All calls on [contract_id] on the active chain, oldest first:
    (txid, fn, args). Indexed like {!find_call}. *)
val calls_on : t -> contract_id:string -> (string * string * Value.t) list
