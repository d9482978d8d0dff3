(* Execution interface between the ledger and smart-contract code.

   A contract is a state machine: [init] runs at deployment and returns
   the initial state; [call] runs on each function-call transaction and
   returns the new state plus any asset payouts released from the
   contract's balance. Execution happens inside block application, so
   state transitions are totally ordered by the chain — exactly the
   object-with-state model of smart contracts the paper adopts
   (Sec 2.3). Contract code must be deterministic: it sees only the
   execution context, its state, and its arguments. *)

module Keys = Ac3_crypto.Keys
module Sha256 = Ac3_crypto.Sha256

type ctx = {
  chain_id : string;
  block_height : int; (* height of the block executing this tx *)
  block_time : float; (* that block's timestamp; used by timelocks *)
  txid : string;
  sender : Keys.public; (* msg.sender: first input's public key *)
  value : Amount.t; (* msg.value: deposit carried by this tx *)
  contract_id : string;
  balance : Amount.t; (* contract balance including [value] *)
}

type outcome = {
  state : Value.t;
  payouts : (string * Amount.t) list; (* (address, amount) released *)
  events : (string * Value.t) list; (* observable log entries *)
}

(* Convenience constructors for contract code. *)
let ok ?(payouts = []) ?(events = []) state = Ok { state; payouts; events }

let reject fmt = Printf.ksprintf (fun s -> Error s) fmt

module type CODE = sig
  (* Identifies the code in Deploy transactions. *)
  val code_id : string

  (* Constructor: validate arguments and return the initial state. *)
  val init : ctx -> Value.t -> (Value.t, string) result

  (* Function call: return the new state and payouts, or a rejection.
     A rejected call leaves the contract state unchanged (the transaction
     is invalid and excluded from blocks). *)
  val call : ctx -> state:Value.t -> fn:string -> args:Value.t -> (outcome, string) result
end

type registry = (string, (module CODE)) Hashtbl.t

let create_registry () : registry = Hashtbl.create 16

let register registry (module C : CODE) =
  if Hashtbl.mem registry C.code_id then
    invalid_arg (Printf.sprintf "Contract_iface.register: duplicate code id %S" C.code_id);
  Hashtbl.replace registry C.code_id (module C : CODE)

let find registry code_id = Hashtbl.find_opt registry code_id

(* Sorted so listings and digests over the registry are stable. *)
let code_ids registry =
  (* ac3-lint: allow D001 — unique code-id keys; sorted by String.compare below *)
  Hashtbl.fold (fun k _ acc -> k :: acc) registry [] |> List.sort String.compare

(* Contract instance ids are derived from the deploying transaction, so
   they are unique and predictable from the deployment. *)
let contract_id_of_deploy ~txid = Sha256.digest_list [ "contract-id"; txid ]
