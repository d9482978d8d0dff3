(* Algorithm 3: the witness-network smart contract SCw coordinating an
   AC2T (paper Sec 4.2).

   The contract stores the multisigned graph ms(D) plus one stable
   checkpoint header per asset chain, and exists in one of three states:
   Published (P), Redeem_Authorized (RDauth) or Refund_Authorized
   (RFauth). Only P -> RDauth and P -> RFauth transitions exist, which
   makes the commit and abort decisions mutually exclusive.

   AuthorizeRedeem carries one evidence bundle per edge of the graph; the
   witness miners (executing this code during block validation) verify
   that every per-edge contract is published on its blockchain, locks the
   right asset from the right sender toward the right recipient, and
   conditions its redemption and refund on this very contract. *)

module Codec = Ac3_crypto.Codec
module Multisig = Ac3_crypto.Multisig
open Ac3_chain

let code_id = "ac3wn-witness"

let status_published = Value.Tagged ("P", Value.Unit)

let status_redeem_authorized = Value.Tagged ("RDauth", Value.Unit)

let status_refund_authorized = Value.Tagged ("RFauth", Value.Unit)

(* Constructor arguments. *)
let args ~graph ~ms ~checkpoints ~evidence_depth =
  Value.record
    [
      ("graph", Value.Bytes (Ac2t.to_bytes graph));
      ("ms", Value.Bytes (Multisig.to_bytes ms));
      ( "checkpoints",
        Value.List
          (List.map
             (fun (chain, header) ->
               Value.Pair
                 (Value.String chain, Value.Bytes (Codec.encode Block.encode_header header)))
             checkpoints) );
      ("evidence_depth", Value.Int (Int64.of_int evidence_depth));
    ]

let get_status state = Value.field state "status"

let state_is state status =
  match get_status state with Ok v -> Value.equal v status | Error _ -> false

let get_graph state =
  match Result.bind (Value.field state "graph") Value.as_bytes with
  | Error e -> Error e
  | Ok bytes -> (
      try Ok (Ac2t.of_bytes bytes) with Codec.Decode_error e -> Error e)

let get_evidence_depth state =
  Result.map Int64.to_int (Result.bind (Value.field state "evidence_depth") Value.as_int)

let checkpoint_for state chain =
  let open Value in
  let* cps = Result.bind (field state "checkpoints") as_list in
  let rec find = function
    | [] -> Error (Printf.sprintf "no checkpoint for chain %s" chain)
    | Pair (String c, Bytes header_bytes) :: rest ->
        if String.equal c chain then
          try Ok (Codec.decode Block.decode_header header_bytes)
          with Codec.Decode_error e -> Error e
        else find rest
    | _ :: _ -> Error "corrupt checkpoint list"
  in
  find cps

module Code : Contract_iface.CODE = struct
  let code_id = code_id

  let init (ctx : Contract_iface.ctx) args =
    let open Value in
    let* graph_bytes = Result.bind (field args "graph") as_bytes in
    let* ms_bytes = Result.bind (field args "ms") as_bytes in
    let* checkpoints = Result.bind (field args "checkpoints") as_list in
    let* depth = Result.bind (field args "evidence_depth") as_int in
    let parse_graph =
      try Ok (Ac2t.of_bytes graph_bytes) with Codec.Decode_error e -> Error e
    in
    let* graph = parse_graph in
    let parse_ms = try Ok (Multisig.of_bytes ms_bytes) with Codec.Decode_error e -> Error e in
    let* ms = parse_ms in
    (* The registration is only accepted if all participants signed this
       exact graph (Equation 1). *)
    if not (Ac2t.verify_multisig graph ms) then Error "multisignature does not cover the graph"
    else begin
      (* Each asset chain must come with a checkpoint header from that
         chain, or evidence about it can never be validated. *)
      let covered chain =
        List.exists
          (function
            | Pair (String c, Bytes hb) -> (
                String.equal c chain
                &&
                try (Codec.decode Block.decode_header hb).Block.chain = chain
                with Codec.Decode_error _ -> false)
            | _ -> false)
          checkpoints
      in
      match List.find_opt (fun c -> not (covered c)) (Ac2t.chains graph) with
      | Some missing -> Error (Printf.sprintf "missing checkpoint for chain %s" missing)
      | None ->
          if Int64.compare depth 0L < 0 then Error "negative evidence depth"
          else begin
            ignore ctx;
            Ok
              (record
                 [
                   ("status", status_published);
                   ("graph", Bytes graph_bytes);
                   ("ms", Bytes ms_bytes);
                   ("checkpoints", List checkpoints);
                   ("evidence_depth", Int depth);
                 ])
          end
    end

  (* VerifyContracts: check one evidence bundle per edge. *)
  let verify_contracts (ctx : Contract_iface.ctx) state evidences =
    let open Value in
    let* graph = get_graph state in
    let* depth = get_evidence_depth state in
    let edges = Ac2t.edges graph in
    if List.length edges <> List.length evidences then
      Error
        (Printf.sprintf "expected %d evidence bundles, got %d" (List.length edges)
           (List.length evidences))
    else begin
      let check_edge (e : Ac2t.edge) ev =
        let* evidence = Evidence.of_value ev in
        let* checkpoint = checkpoint_for state e.Ac2t.chain in
        let* tx = Evidence.verify ~checkpoint ~depth evidence in
        if not (String.equal tx.Tx.chain e.Ac2t.chain) then
          Error "evidence transaction from wrong chain"
        else
          match tx.Tx.payload with
          | Tx.Deploy { code_id; args; deposit } ->
              if not (String.equal code_id Permissionless_sc.code_id) then
                Error "edge contract has wrong code"
              else if not (Amount.equal deposit e.Ac2t.amount) then
                Error "edge contract locks the wrong amount"
              else begin
                (* msg.sender of the deployment must be the edge source. *)
                match tx.Tx.inputs with
                | [] -> Error "deployment has no sender"
                | (first : Tx.input) :: _ ->
                    if not (String.equal first.Tx.pubkey e.Ac2t.from_pk) then
                      Error "edge contract deployed by wrong participant"
                    else
                      let* recipient = Permissionless_sc.recipient_of_args args in
                      if not (String.equal recipient e.Ac2t.to_pk) then
                        Error "edge contract pays wrong recipient"
                      else
                        let* witness_chain, scw, _d = Permissionless_sc.binding_of_args args in
                        if not (String.equal witness_chain ctx.chain_id) then
                          Error "edge contract bound to wrong witness chain"
                        else if not (String.equal scw ctx.contract_id) then
                          Error "edge contract bound to a different SCw"
                        else Ok ()
              end
          | Tx.Transfer | Tx.Call _ | Tx.Coinbase _ ->
              Error "evidence transaction is not a contract deployment"
      in
      let rec all = function
        | [], [] -> Ok ()
        | e :: es, ev :: evs -> ( match check_edge e ev with Ok () -> all (es, evs) | Error m -> Error m)
        | _ -> Error "evidence arity mismatch"
      in
      all (edges, evidences)
    end

  let call (ctx : Contract_iface.ctx) ~state ~fn ~args =
    let open Value in
    match fn with
    | "authorize_redeem" ->
        if not (state_is state status_published) then Contract_iface.reject "not in state P"
        else
          let* evidences = as_list args in
          let* () = verify_contracts ctx state evidences in
          let* state' = set_field state "status" status_redeem_authorized in
          Contract_iface.ok ~events:[ ("redeem_authorized", Unit) ] state'
    | "authorize_refund" ->
        if not (state_is state status_published) then Contract_iface.reject "not in state P"
        else
          let* state' = set_field state "status" status_refund_authorized in
          Contract_iface.ok ~events:[ ("refund_authorized", Unit) ] state'
    | other -> Contract_iface.reject "unknown function %s" other
end
