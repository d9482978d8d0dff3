(* Algorithm 4: the per-edge swap contract for the AC3WN protocol.

   Both commitment schemes are the pair (SCw, d): redemption requires
   evidence that the witness-network contract SCw reached state RDauth,
   refund that it reached RFauth, in both cases buried at depth >= d in
   the witness blockchain. Evidence is validated in-contract against a
   stored stable checkpoint header of the witness chain (Sec 4.3).

   A transaction calling SCw.authorize_redeem can only appear in a
   witness-chain block if the call succeeded — miners execute contract
   calls during block validation and drop rejected ones — so proving the
   call's inclusion proves the state transition. *)

module Keys = Ac3_crypto.Keys
open Ac3_chain

let code_id = "ac3wn-swap"

let econ = Econ.swap ~code_id

let authorize_redeem_fn = "authorize_redeem"

let authorize_refund_fn = "authorize_refund"

module Commitment = struct
  let code_id = code_id

  (* Scheme arguments: the (SCw, d) binding plus the checkpoint used to
     validate witness-chain evidence. *)
  let init_commitment _ctx args =
    let open Value in
    let* witness_chain = Result.bind (field args "witness_chain") as_string in
    let* scw = Result.bind (field args "scw") as_bytes in
    let* depth = Result.bind (field args "depth") as_int in
    let* checkpoint_bytes = Result.bind (field args "witness_checkpoint") as_bytes in
    if String.length scw <> 32 then Error "scw must be a 32-byte contract id"
    else if Int64.compare depth 0L < 0 then Error "negative depth"
    else begin
      match
        try Ok (Ac3_crypto.Codec.decode Block.decode_header checkpoint_bytes)
        with Ac3_crypto.Codec.Decode_error e -> Error e
      with
      | Error e -> Error ("bad witness checkpoint: " ^ e)
      | Ok header ->
          if not (String.equal header.Block.chain witness_chain) then
            Error "checkpoint is not from the witness chain"
          else
            Ok
              (record
                 [
                   ("witness_chain", String witness_chain);
                   ("scw", Bytes scw);
                   ("depth", Int depth);
                   ("witness_checkpoint", Bytes checkpoint_bytes);
                 ])
    end

  (* Shared check: does [secret] prove a successful SCw call of [fn],
     buried at depth >= d? *)
  let check fn _ctx ~commitment ~secret =
    let open Value in
    let* scw = Result.bind (field commitment "scw") as_bytes in
    let* depth = Result.bind (field commitment "depth") as_int in
    let* checkpoint_bytes = Result.bind (field commitment "witness_checkpoint") as_bytes in
    let checkpoint = Ac3_crypto.Codec.decode Block.decode_header checkpoint_bytes in
    match Evidence.of_value secret with
    | Error _ -> Ok false
    | Ok evidence -> (
        match Evidence.verify ~checkpoint ~depth:(Int64.to_int depth) evidence with
        | Error _ -> Ok false
        | Ok tx -> (
            match tx.Tx.payload with
            | Tx.Call { contract_id; fn = called_fn; _ } ->
                Ok (String.equal contract_id scw && String.equal called_fn fn)
            | Tx.Transfer | Tx.Deploy _ | Tx.Coinbase _ -> Ok false))

  let is_redeemable ctx ~commitment ~secret = check authorize_redeem_fn ctx ~commitment ~secret

  let is_refundable ctx ~commitment ~secret = check authorize_refund_fn ctx ~commitment ~secret
end

module Code = Swap_template.Make (Commitment)

(* Scheme arguments: the (SCw, d) binding plus the stable witness-chain
   checkpoint header used to validate decision evidence. *)
let scheme_args ~witness_chain ~scw ~depth ~witness_checkpoint =
  Value.record
    [
      ("witness_chain", Value.String witness_chain);
      ("scw", Value.Bytes scw);
      ("depth", Value.Int (Int64.of_int depth));
      ( "witness_checkpoint",
        Value.Bytes (Ac3_crypto.Codec.encode Block.encode_header witness_checkpoint) );
    ]

let args ~recipient_pk ~witness_chain ~scw ~depth ~witness_checkpoint =
  Swap_template.make_args ~recipient_pk
    (scheme_args ~witness_chain ~scw ~depth ~witness_checkpoint)

(* Parse the (SCw, d) binding out of deploy-transaction arguments; the
   witness contract uses this in VerifyContracts. *)
let binding_of_args args =
  let open Value in
  let* scheme = field args "scheme" in
  let* witness_chain = Result.bind (field scheme "witness_chain") as_string in
  let* scw = Result.bind (field scheme "scw") as_bytes in
  let* depth = Result.bind (field scheme "depth") as_int in
  Ok (witness_chain, scw, Int64.to_int depth)

let recipient_of_args args =
  let open Value in
  Result.bind (field args "recipient") as_bytes
