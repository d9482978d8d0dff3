(** Execution interface between the ledger and smart-contract code.

    Contracts are deterministic state machines executed during block
    application (the paper's object-with-state contract model). *)

module Keys = Ac3_crypto.Keys

type ctx = {
  chain_id : string;
  block_height : int;
  block_time : float;
  txid : string;
  sender : Keys.public;
  value : Amount.t;
  contract_id : string;
  balance : Amount.t;
}

type outcome = {
  state : Value.t;
  payouts : (string * Amount.t) list;
  events : (string * Value.t) list;
}

val ok :
  ?payouts:(string * Amount.t) list ->
  ?events:(string * Value.t) list ->
  Value.t ->
  (outcome, string) result

(** Formatted rejection. *)
val reject : ('a, unit, string, (outcome, string) result) format4 -> 'a

module type CODE = sig
  val code_id : string

  val init : ctx -> Value.t -> (Value.t, string) result

  val call : ctx -> state:Value.t -> fn:string -> args:Value.t -> (outcome, string) result
end

type registry

val create_registry : unit -> registry

(** Raises [Invalid_argument] on duplicate code ids. *)
val register : registry -> (module CODE) -> unit

val find : registry -> string -> (module CODE) option

val code_ids : registry -> string list

(** Deterministic contract-instance id from the deploying txid. *)
val contract_id_of_deploy : txid:string -> string
