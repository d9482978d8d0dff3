(* Algorithm 2: the swap contract for the AC3TW protocol (Sec 4.1).

   Both commitment schemes are the pair (ms(D), PK_Trent): the redemption
   secret is Trent's signature over (ms(D), RD) and the refund secret is
   Trent's signature over (ms(D), RF). Mutual exclusion is enforced by
   Trent's key/value store, which issues at most one of the two
   signatures. *)

module Keys = Ac3_crypto.Keys
module Codec = Ac3_crypto.Codec
open Ac3_chain

let code_id = "ac3tw-swap"

(* The message Trent signs for a decision on ms(D). *)
let decision_message ~ms_id decision =
  let w = Codec.Writer.create () in
  Codec.Writer.string w "trent-decision";
  Codec.Writer.fixed w ~len:32 ms_id;
  Codec.Writer.string w (match decision with `Redeem -> "RD" | `Refund -> "RF");
  Codec.Writer.contents w

module Commitment = struct
  let code_id = code_id

  (* Scheme arguments: {ms_id : Bytes(32); trent_pk : Bytes(32)}. *)
  let init_commitment _ctx args =
    let open Value in
    let* ms_id = Result.bind (field args "ms_id") as_bytes in
    let* trent = Result.bind (field args "trent_pk") as_bytes in
    if String.length ms_id <> 32 then Error "ms_id must be 32 bytes"
    else if String.length trent <> 32 then Error "trent_pk must be 32 bytes"
    else Ok (record [ ("ms_id", Bytes ms_id); ("trent_pk", Bytes trent) ])

  let check decision _ctx ~commitment ~secret =
    let open Value in
    let* ms_id = Result.bind (field commitment "ms_id") as_bytes in
    let* trent = Result.bind (field commitment "trent_pk") as_bytes in
    match secret with
    | Bytes sig_bytes -> (
        match
          try Ok (Codec.decode Keys.decode_signature sig_bytes)
          with Codec.Decode_error e -> Error e
        with
        | Error _ -> Ok false
        | Ok signature -> Ok (Keys.verify trent (decision_message ~ms_id decision) signature))
    | _ -> Ok false

  let is_redeemable ctx ~commitment ~secret = check `Redeem ctx ~commitment ~secret

  let is_refundable ctx ~commitment ~secret = check `Refund ctx ~commitment ~secret
end

module Code = Swap_template.Make (Commitment)

let args ~recipient_pk ~ms_id ~trent_pk =
  Swap_template.make_args ~recipient_pk
    (Value.record [ ("ms_id", Value.Bytes ms_id); ("trent_pk", Value.Bytes trent_pk) ])

(* Wrap Trent's signature for a redeem/refund call. *)
let secret_args signature = Value.Bytes (Codec.encode Keys.encode_signature signature)
