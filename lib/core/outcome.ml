(* Outcome evaluation: after a protocol run, inspect the final state of
   every per-edge contract across all chains and decide whether the
   all-or-nothing atomicity property held.

   The atomicity criterion (paper Sec 3): either every sub-transaction's
   asset transfer took place (all contracts redeemed) or none did
   (contracts refunded or never published). A mix of redeemed and
   refunded/expired contracts is a violation — some participant lost
   assets. *)

module Ac2t = Ac3_contract.Ac2t
module Swap_template = Ac3_contract.Swap_template
open Ac3_chain

type edge_outcome = {
  edge : Ac2t.edge;
  contract_id : string option;
  status : Swap_template.status;
}

type t = { edges : edge_outcome list }

(* A contract that is absent, or whose state is not a swap template's,
   moved no deposit: it reads as never published ("missing"). *)
let status_of_state state =
  Option.value (Swap_template.classify state) ~default:Swap_template.Unpublished

(* Read every edge contract's final status from its chain's gateway
   node. *)
let evaluate universe ~graph ~contracts =
  let edges =
    List.map2
      (fun (edge : Ac2t.edge) contract_id ->
        let status =
          match contract_id with
          | None -> Swap_template.Unpublished
          | Some cid -> (
              let node = Universe.gateway universe edge.Ac2t.chain in
              match Node.contract node cid with
              | None -> Swap_template.Unpublished
              | Some c -> status_of_state c.Ledger.state)
        in
        { edge; contract_id; status })
      (Ac2t.edges graph) contracts
  in
  { edges }

let statuses t = Array.of_list (List.map (fun e -> e.status) t.edges)

let all_redeemed t = List.for_all (fun e -> e.status = Redeemed) t.edges

(* "Nothing happened": no asset changed hands. Contracts still in P hold
   locked assets, which is a liveness problem but not (yet) an atomicity
   violation; for final verdicts the caller should run past all
   timelocks. *)
let none_redeemed t = List.for_all (fun e -> e.status <> Redeemed) t.edges

let all_refunded_or_missing t =
  List.for_all (fun e -> e.status = Refunded || e.status = Unpublished) t.edges

(* The all-or-nothing property. *)
let atomic t = all_redeemed t || none_redeemed t

(* Strict finality: every contract settled (nothing still locked). *)
let settled t = Swap_template.settled (statuses t)

let committed t = all_redeemed t

let aborted t = none_redeemed t && settled t

let pp_status ppf : Swap_template.status -> unit = function
  | Unpublished -> Fmt.string ppf "missing"
  | Published -> Fmt.string ppf "P"
  | Redeemed -> Fmt.string ppf "RD"
  | Refunded -> Fmt.string ppf "RF"

let pp ppf t =
  Fmt.pf ppf "outcome:";
  List.iter
    (fun e ->
      Fmt.pf ppf " [%s %a]" e.edge.Ac2t.chain pp_status e.status)
    t.edges;
  Fmt.pf ppf " atomic=%b" (atomic t)
