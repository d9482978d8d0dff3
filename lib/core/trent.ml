(* Trent: the centralized trusted witness of the AC3TW protocol
   (paper Sec 4.1).

   Trent keeps a key/value store mapping each registered multisigned
   graph ms(D) to his decision: unset (⊥), a redemption signature
   T(ms(D), RD), or a refund signature T(ms(D), RF). The store guarantees
   the two signatures are mutually exclusive: once one is issued for a
   given ms(D), the other can never be. Being trusted, Trent verifies
   contract deployments by reading the blockchains directly. *)

module Keys = Ac3_crypto.Keys
module Multisig = Ac3_crypto.Multisig
module Ac2t = Ac3_contract.Ac2t
module Centralized_sc = Ac3_contract.Centralized_sc
module Swap_template = Ac3_contract.Swap_template
module Protocol = Ac3_flow.Protocol
open Ac3_chain

type entry = {
  graph : Ac2t.t;
  ms : Multisig.t;
  mutable decision : (Protocol.decision * Keys.signature) option;
}

type t = {
  identity : Keys.t;
  universe : Universe.t;
  store : (string, entry) Hashtbl.t; (* ms_id -> entry *)
  (* Trent is a single machine: when down (crash, DoS), no decision can
     be issued and every undecided AC2T stays locked — the availability
     weakness that motivates AC3WN (Sec 4.2). *)
  mutable available : bool;
}

let create universe ~name =
  { identity = Keys.create name; universe; store = Hashtbl.create 16; available = true }

let public t = Keys.public t.identity

let crash t = t.available <- false

(* Register a multisigned graph; refuses duplicates and invalid
   multisignatures. *)
let register t ~graph ~ms =
  let id = Multisig.id ms in
  if not t.available then Error "witness unavailable"
  else if Hashtbl.mem t.store id then Error "already registered"
  else if not (Ac2t.verify_multisig graph ms) then Error "invalid multisignature"
  else begin
    Hashtbl.replace t.store id { graph; ms; decision = None };
    Ok id
  end

(* Trent's check that a contract on chain matches its edge: correct code,
   participants, asset, and commitment bound to (ms(D), PK_T), confirmed
   at the chain's depth. *)
let contract_matches_edge t ~ms_id (edge : Ac2t.edge) contract_id =
  let node = Universe.gateway t.universe edge.Ac2t.chain in
  match Node.contract node contract_id with
  | None -> false
  | Some c ->
      String.equal c.Ledger.code_id Centralized_sc.code_id
      && Swap_template.is_published c.Ledger.state
      && Swap_template.get_sender_pk c.Ledger.state = Ok edge.Ac2t.from_pk
      && Swap_template.get_recipient_pk c.Ledger.state = Ok edge.Ac2t.to_pk
      && Swap_template.get_asset c.Ledger.state = Ok (Amount.to_int64 edge.Ac2t.amount)
      && (match Swap_template.get_commitment c.Ledger.state with
         | Ok commitment ->
             Result.bind (Value.field commitment "ms_id") Value.as_bytes = Ok ms_id
             && Result.bind (Value.field commitment "trent_pk") Value.as_bytes
                = Ok (public t)
         | Error _ -> false)

(* Sign [decision] on ms(D), or return the signature already issued on
   it: only if ms(D) is registered, not decided the other way, and
   [verify] accepts its entry. *)
let decide t ~ms_id decision ~verify =
  if not t.available then Error "witness unavailable"
  else
    match Hashtbl.find_opt t.store ms_id with
    | None -> Error "unknown ms(D)"
    | Some entry -> (
        match entry.decision with
        | Some (d, s) when d = decision -> Ok s
        | Some (Protocol.Commit, _) -> Error "already decided: redeem"
        | Some _ -> Error "already decided: refund"
        | None ->
            Result.map
              (fun () ->
                let kind = if decision = Protocol.Commit then `Redeem else `Refund in
                let s = Keys.sign t.identity (Centralized_sc.decision_message ~ms_id kind) in
                entry.decision <- Some (decision, s);
                s)
              (verify entry))

(* Witness the redemption: only if every edge contract is deployed and
   correct. *)
let request_redeem t ~ms_id ~contracts =
  decide t ~ms_id Protocol.Commit ~verify:(fun entry ->
      let edges = Ac2t.edges entry.graph in
      if List.length contracts <> List.length edges then Error "contract list arity"
      else if not (List.for_all2 (fun e cid -> contract_matches_edge t ~ms_id e cid) edges contracts)
      then Error "verification failed: not all contracts deployed and correct"
      else Ok ())

let request_refund t ~ms_id = decide t ~ms_id Protocol.Abort ~verify:(fun _ -> Ok ())
