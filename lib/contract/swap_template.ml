(* Algorithm 1: the atomic-swap smart-contract template.

   A swap contract locks an asset from a sender toward a recipient and
   exists in one of three states — Published (P), Redeemed (RD) or
   Refunded (RF). [redeem] transfers the asset to the recipient when the
   redemption commitment-scheme secret validates; [refund] returns it to
   the sender when the refund secret validates. The concrete commitment
   schemes (hashlock+timelock, a trusted witness's signature, or the
   witness-network contract state) are supplied by the [COMMITMENT]
   parameter — mirroring the paper's class inheritance with a functor. *)

module Keys = Ac3_crypto.Keys
open Ac3_chain

(* The three status tags; [classify] matches the same literals. *)
let status_published = Value.Tagged ("P", Value.Unit)

let status_redeemed = Value.Tagged ("RD", Value.Unit)

let status_refunded = Value.Tagged ("RF", Value.Unit)

module type COMMITMENT = sig
  (* Code id registered on the chain. *)
  val code_id : string

  (* Validate the scheme-specific constructor arguments and return the
     scheme state stored alongside the template fields. *)
  val init_commitment : Contract_iface.ctx -> Value.t -> (Value.t, string) result

  (* IsRedeemable: does [secret] open the redemption commitment? *)
  val is_redeemable :
    Contract_iface.ctx -> commitment:Value.t -> secret:Value.t -> (bool, string) result

  (* IsRefundable: does [secret] open the refund commitment? *)
  val is_refundable :
    Contract_iface.ctx -> commitment:Value.t -> secret:Value.t -> (bool, string) result
end

(* Template state accessors shared with protocol drivers and tests. *)
let get_status state = Value.field state "status"

let get_recipient_pk state = Result.bind (Value.field state "recipient_pk") Value.as_bytes

let get_sender_pk state = Result.bind (Value.field state "sender_pk") Value.as_bytes

let get_asset state = Result.bind (Value.field state "asset") Value.as_int

let get_commitment state = Value.field state "commitment"

(* --- Per-edge settlement status ---------------------------------------- *)

type status = Unpublished | Published | Redeemed | Refunded

(* One field lookup and a match on the status constructor: protocol
   polls ask this of every contract they watch. *)
let classify state =
  match get_status state with
  | Ok (Value.Tagged ("P", Value.Unit)) -> Some Published
  | Ok (Value.Tagged ("RD", Value.Unit)) -> Some Redeemed
  | Ok (Value.Tagged ("RF", Value.Unit)) -> Some Refunded
  | Ok _ | Error _ -> None

let is_published state = match classify state with Some Published -> true | _ -> false

let is_redeemed state = match classify state with Some Redeemed -> true | _ -> false

let is_refunded state = match classify state with Some Refunded -> true | _ -> false

let terminal = function Redeemed | Refunded -> true | Unpublished | Published -> false

let mixed statuses = Array.exists (( = ) Redeemed) statuses && Array.exists (( = ) Refunded) statuses

let settled statuses = Array.for_all (fun s -> s <> Published) statuses

(* Constructor arguments common to all swap contracts: the recipient's
   public key paired with scheme-specific arguments. *)
let make_args ~recipient_pk scheme_args =
  Value.record [ ("recipient", Value.Bytes recipient_pk); ("scheme", scheme_args) ]

module Make (C : COMMITMENT) : Contract_iface.CODE = struct
  let code_id = C.code_id

  let init (ctx : Contract_iface.ctx) args =
    let open Value in
    let* recipient = Result.bind (field args "recipient") as_bytes in
    if String.length recipient <> 32 then Error "recipient must be a 32-byte public key"
    else if Amount.is_zero ctx.value then Error "no asset locked in the contract"
    else
      let* scheme_args = field args "scheme" in
      let* commitment = C.init_commitment ctx scheme_args in
      Ok
        (record
           [
             ("sender_pk", Bytes ctx.sender);
             ("recipient_pk", Bytes recipient);
             ("asset", Int (Amount.to_int64 ctx.value));
             ("status", status_published);
             ("commitment", commitment);
           ])

  let transition ctx state ~to_ ~pay_to ~event =
    let open Value in
    let* asset = get_asset state in
    let* state' = set_field state "status" to_ in
    let payouts = [ (pay_to, Amount.of_int64 asset) ] in
    ignore ctx;
    Ok { Contract_iface.state = state'; payouts; events = [ (event, Unit) ] }

  let call (ctx : Contract_iface.ctx) ~state ~fn ~args =
    let open Value in
    match fn with
    | "redeem" ->
        if not (is_published state) then Contract_iface.reject "not in state P"
        else
          let* commitment = get_commitment state in
          let* ok = C.is_redeemable ctx ~commitment ~secret:args in
          if not ok then Contract_iface.reject "redemption secret invalid"
          else
            let* recipient = get_recipient_pk state in
            transition ctx state ~to_:status_redeemed ~pay_to:(Keys.address_of_public recipient)
              ~event:"redeemed"
    | "refund" ->
        if not (is_published state) then Contract_iface.reject "not in state P"
        else
          let* commitment = get_commitment state in
          let* ok = C.is_refundable ctx ~commitment ~secret:args in
          if not ok then Contract_iface.reject "refund secret invalid"
          else
            let* sender = get_sender_pk state in
            transition ctx state ~to_:status_refunded ~pay_to:(Keys.address_of_public sender)
              ~event:"refunded"
    | other -> Contract_iface.reject "unknown function %s" other
end
