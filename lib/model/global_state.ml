(* The global state of one AC2T execution, as the model checker sees it.

   A state is the product of every contract's settlement status plus the
   protocol-level facts that gate transitions: who can produce the
   hashlock secret, who is still alive, how many timelock deadlines have
   passed, and (for AC3WN) the witness network's decision. Continuous
   time is abstracted into an index over the finitely many distinct
   timelock expiries: two clock values between the same two deadlines
   enable exactly the same moves, so nothing else is reachable. *)

module Swap_template = Ac3_contract.Swap_template
module Protocol = Ac3_flow.Protocol

type t = {
  edges : Swap_template.status array;  (** per-edge contract status, in graph edge order *)
  knows : bool array;  (** per-party: can produce the hashlock secret *)
  alive : bool array;  (** per-party: still acting (conforming until crashed) *)
  time : int;  (** how many distinct timelock deadlines have passed *)
  decision : Protocol.decision;
  crashes_left : int;  (** remaining fault budget *)
}

let status_char : Swap_template.status -> char = function
  | Unpublished -> 'U'
  | Published -> 'P'
  | Redeemed -> 'D'
  | Refunded -> 'F'

let decision_char : Protocol.decision -> char = function Undecided -> '?' | Commit -> 'D' | Abort -> 'F'

(* Canonical byte key: interning two states with equal keys merges the
   commuting-diamond interleavings that reach them. Every field has a
   fixed width, so no separators are needed for the key to be injective
   over the states of one model. *)
let key s =
  let ne = Array.length s.edges and nk = Array.length s.knows and na = Array.length s.alive in
  let b = Bytes.create (ne + nk + na + 17) in
  Array.iteri (fun i e -> Bytes.set b i (status_char e)) s.edges;
  Array.iteri (fun i k -> Bytes.set b (ne + i) (if k then '1' else '0')) s.knows;
  Array.iteri (fun i a -> Bytes.set b (ne + nk + i) (if a then '1' else '0')) s.alive;
  let o = ne + nk + na in
  Bytes.set_int64_le b o (Int64.of_int s.time);
  Bytes.set b (o + 8) (decision_char s.decision);
  Bytes.set_int64_le b (o + 9) (Int64.of_int s.crashes_left);
  Bytes.unsafe_to_string b

(* Recovery closure for the deadlock rule: revive every crashed party and
   drop the remaining fault budget. A state counts as deadlocked only if
   it cannot settle even after every party comes back. A state that is
   already revived is returned as is. *)
let revive s =
  if s.crashes_left = 0 && Array.for_all Fun.id s.alive then s
  else { s with alive = Array.make (Array.length s.alive) true; crashes_left = 0 }

let pp_status ppf e = Fmt.char ppf (status_char e)

let pp ppf s =
  Fmt.pf ppf "edges=[%a] knows=[%a] alive=[%a] time=%d witness=%c"
    (Fmt.array ~sep:Fmt.nop pp_status)
    s.edges
    (Fmt.array ~sep:Fmt.nop (fun ppf k -> Fmt.char ppf (if k then '1' else '0')))
    s.knows
    (Fmt.array ~sep:Fmt.nop (fun ppf a -> Fmt.char ppf (if a then '1' else '0')))
    s.alive s.time (decision_char s.decision)
