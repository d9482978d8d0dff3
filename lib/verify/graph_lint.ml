(* Pass 1: graph well-formedness lints.

   Everything here is computed from the raw edge list so that graphs
   [Ac2t.create] would reject can still be diagnosed; [lint] merely
   re-enters through the edge list of a built graph and adds the
   structural rules. *)

module Ac2t = Ac3_contract.Ac2t
module Hex = Ac3_crypto.Hex
module Flow = Ac3_flow.Flow
open Ac3_chain

let short pk = Hex.short ~n:6 pk

let edge_loc i (e : Ac2t.edge) =
  Fmt.str "edge %d (%s->%s @%s)" i (short e.Ac2t.from_pk) (short e.Ac2t.to_pk) e.Ac2t.chain

(* --- G001-G004: local edge checks --------------------------------------- *)

let lint_edges (edges : Ac2t.edge list) =
  let empty =
    if edges = [] then
      [ Diagnostic.error ~rule:"G001-empty-graph" ~location:"graph" "the transaction has no edges" ]
    else []
  in
  let locals =
    List.concat
      (List.mapi
         (fun i (e : Ac2t.edge) ->
           let self =
             if String.equal e.Ac2t.from_pk e.Ac2t.to_pk then
               [
                 Diagnostic.error ~rule:"G002-self-edge" ~location:(edge_loc i e)
                   "an edge from a participant to itself moves nothing and breaks the \
                    vertex-disjointness of D";
               ]
             else []
           in
           let zero =
             if Amount.is_zero e.Ac2t.amount then
               [
                 Diagnostic.error ~rule:"G003-zero-amount" ~location:(edge_loc i e)
                   "a zero-amount edge locks no asset: its contract is unfundable";
               ]
             else []
           in
           self @ zero)
         edges)
  in
  let duplicates =
    let seen = Hashtbl.create 16 in
    List.concat
      (List.mapi
         (fun i (e : Ac2t.edge) ->
           let key = (e.Ac2t.from_pk, e.Ac2t.to_pk, e.Ac2t.amount, e.Ac2t.chain) in
           match Hashtbl.find_opt seen key with
           | Some j ->
               [
                 Diagnostic.error ~rule:"G004-duplicate-edge" ~location:(edge_loc i e)
                   "identical to edge %d: duplicate sub-transactions produce indistinguishable \
                    contracts, so a counterparty can satisfy both with one deployment"
                   j;
               ]
           | None ->
               Hashtbl.replace seen key i;
               [])
         edges)
  in
  empty @ locals @ duplicates

(* --- Structure: connectivity and single-leader executability -------------- *)

let structure_lints ~profile graph =
  let leader = List.hd (Ac2t.participants graph) in
  let connected = Ac2t.is_connected graph in
  let disconnected =
    if connected then []
    else
      match (profile : Flow.profile) with
      | Single_leader ->
          [
            Diagnostic.error ~rule:"G005-disconnected" ~location:"graph"
              "the graph is not weakly connected (Fig 7b): a single-leader protocol cannot \
               propagate the hashlock to the other component";
          ]
      | Witness ->
          [
            Diagnostic.info ~rule:"G005-disconnected" ~location:"graph"
              "the graph is not weakly connected; executable by AC3WN/AC3TW only";
          ]
  in
  let leader_cycle =
    match (profile : Flow.profile) with
    | Witness -> []
    | Single_leader ->
        if connected && Ac2t.cyclic_without_leader graph leader then
          [
            Diagnostic.error ~rule:"G006-leader-cycle" ~location:(Fmt.str "leader %s" (short leader))
              "the graph stays cyclic after removing the leader (Fig 7a, Sec 5.3): every \
               deployment order deadlocks, since some participant must publish an outgoing \
               contract before all its incoming ones are confirmed";
          ]
        else []
  in
  disconnected @ leader_cycle

(* --- G007/G009: value conservation ---------------------------------------- *)

(* The ad-hoc per-participant delta sums that used to live here are now
   a projection of the flow exposures; Flow_lint renders them under the
   original rule ids and message shapes. *)
let conservation_lints edges = Flow_lint.conservation edges

(* --- G008: chain capacity -------------------------------------------------- *)

let capacity_lints ~block_capacity edges =
  match block_capacity with
  | None -> []
  | Some cap ->
      let per_chain = Hashtbl.create 8 in
      List.iter
        (fun (e : Ac2t.edge) ->
          let n = Option.value ~default:0 (Hashtbl.find_opt per_chain e.Ac2t.chain) in
          Hashtbl.replace per_chain e.Ac2t.chain (n + 1))
        edges;
      (* Sorted by chain so the diagnostic order is stable run to run. *)
      (* ac3-lint: allow D001 — unique chain keys; sorted by String.compare below *)
      Hashtbl.fold (fun chain n acc -> (chain, n) :: acc) per_chain []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.filter_map (fun (chain, n) ->
             if n > cap then
               Some
                 (Diagnostic.warning ~rule:"G008-chain-overload"
                    ~location:(Fmt.str "chain %s" chain)
                    "%d sub-transactions on one chain exceed its block capacity (%d): deployment \
                     cannot complete in a single block"
                    n cap)
             else None)

let lint ?(profile = Flow.Witness) ?block_capacity graph =
  let edges = Ac2t.edges graph in
  lint_edges edges
  @ structure_lints ~profile graph
  @ conservation_lints edges
  @ capacity_lints ~block_capacity edges
