(* Hashlock + timelock contract (HTLC) — the building block of Nolan's and
   Herlihy's atomic-swap protocols that AC3WN is evaluated against.

   Redemption commitment scheme: a hashlock h = H(s); the recipient
   redeems by revealing the preimage s.
   Refund commitment scheme: a timelock; once the containing block's
   timestamp reaches it, the sender can refund without any secret. The
   expiring timelock is exactly the mechanism that breaks all-or-nothing
   atomicity under crash failures (paper Sec 1). *)

module Sha256 = Ac3_crypto.Sha256
open Ac3_chain

let code_id = "htlc"

let econ = Econ.swap ~code_id

module Commitment = struct
  let code_id = code_id

  (* Scheme arguments: {hashlock : Bytes(32); timelock : Float}. *)
  let init_commitment _ctx args =
    let open Value in
    let* h = Result.bind (field args "hashlock") as_bytes in
    if String.length h <> 32 then Error "hashlock must be 32 bytes"
    else
      let* tl = field args "timelock" in
      match tl with
      | Float _ -> Ok (record [ ("hashlock", Bytes h); ("timelock", tl) ])
      | _ -> Error "timelock must be a float timestamp"

  let is_redeemable _ctx ~commitment ~secret =
    let open Value in
    let* h = Result.bind (field commitment "hashlock") as_bytes in
    match secret with
    | Bytes s | String s -> Ok (String.equal (Sha256.digest s) h)
    | _ -> Ok false

  let is_refundable (ctx : Contract_iface.ctx) ~commitment ~secret:_ =
    let open Value in
    let* tl = field commitment "timelock" in
    match tl with
    | Float t -> Ok (ctx.block_time >= t)
    | _ -> Error "corrupt timelock"
end

module Code = Swap_template.Make (Commitment)

(* Constructor arguments for deploying an HTLC. *)
let args ~recipient_pk ~hashlock ~timelock =
  Swap_template.make_args ~recipient_pk
    (Value.record [ ("hashlock", Value.Bytes hashlock); ("timelock", Value.Float timelock) ])

(* The hashlock for a secret. *)
let hashlock_of_secret s = Sha256.digest s

(* Redeem/refund call arguments. *)
let redeem_args ~secret = Value.Bytes secret

let refund_args = Value.Unit
