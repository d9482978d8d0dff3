(* Economic profiles: declared value semantics of contract codes. *)

open Ac3_chain

type t = {
  code_id : string;
  locks_deposit : bool;
  redeemable : bool;
  refundable : bool;
  payout_num : int;
  payout_den : int;
  submit_fee : Amount.t;
  evidence_fee : Amount.t;
  max_retries : int option;
}

let swap ~code_id =
  {
    code_id;
    locks_deposit = true;
    redeemable = true;
    refundable = true;
    payout_num = 1;
    payout_den = 1;
    submit_fee = Amount.zero;
    evidence_fee = Amount.zero;
    max_retries = Some 1;
  }

let deposit_of_edge t amount = if t.locks_deposit then amount else Amount.zero

let payout t deposit =
  if t.payout_den <= 0 then invalid_arg "Econ.payout: non-positive denominator";
  let d = Amount.to_int64 deposit in
  let v = Int64.div (Int64.mul d (Int64.of_int t.payout_num)) (Int64.of_int t.payout_den) in
  Amount.of_int64 v
