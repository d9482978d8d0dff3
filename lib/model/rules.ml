(* The M-rule family: cross-contract atomicity checks over the explored
   product automaton.

     M001-mixed-settlement   some interleaving redeems one deposit and
                             refunds another (Sec 3's "deposit lost")
     M002-global-deadlock    a reachable state cannot settle even after
                             every crashed party recovers
     M003-deviation-unsafe   a party whose executed history is conforming
                             (a crash is pure withholding) ends worse
                             than all-refund: an outgoing deposit is
                             redeemed while an incoming one refunds
     M004-witness-fork       the witness decision is not absorbing —
                             checked both on the product and against the
                             real SCw code (lib/contract/witness_sc.ml)
     M005-truncated          the node bound was hit; the verdict covers
                             only the explored prefix

   Each violation carries the shortest event schedule reaching it (BFS
   order), which lib/chaos can concretize into a replayable fault
   plan. *)

module Diagnostic = Ac3_verify.Diagnostic
module State_machine = Ac3_verify.State_machine
module Probes = Ac3_verify.Probes
module Swap_template = Ac3_contract.Swap_template
module Flow = Ac3_flow.Flow
open Global_state

type violation = {
  rule : string;
  node : int;
  state : Global_state.t;
  schedule : Semantics.move list;
}

let violation t rule id =
  { rule; node = id; state = (Explore.node t id).Explore.state; schedule = Explore.schedule t id }

let loc id = Fmt.str "product state #%d" id

let render_schedule t moves = Fmt.str "%a" (Semantics.pp_schedule t.Explore.model) moves

(* --- M001 ------------------------------------------------------------- *)

let m001 t =
  match Explore.find_first t (fun n -> Swap_template.mixed n.Explore.state.edges) with
  | None -> ([], [])
  | Some id ->
      let v = violation t "M001-mixed-settlement" id in
      ( [
          Diagnostic.error ~rule:v.rule ~location:(loc id)
            "an interleaving settles one contract Redeemed and another Refunded: a \
             participant paid without being paid (Sec 3 atomicity violation); schedule:\n%s"
            (render_schedule t v.schedule);
        ],
        [ v ] )

(* --- M002 ------------------------------------------------------------- *)

let m002 t =
  let can_settle = Explore.can_settle_memo t in
  match Explore.find_first t (fun n -> not (can_settle n.Explore.state)) with
  | None -> ([], [])
  | Some id ->
      let v = violation t "M002-global-deadlock" id in
      ( [
          Diagnostic.error ~rule:v.rule ~location:(loc id)
            "a reachable global state cannot reach any fully settled state, even if every \
             crashed party recovers: some deposit is locked forever; schedule:\n%s"
            (render_schedule t v.schedule);
        ],
        [ v ] )

(* --- M003 ------------------------------------------------------------- *)

(* Every executed action in the model is conforming (the only fault is
   withholding), so any party with a redeemed outgoing edge and a
   refunded incoming edge is a conforming-history victim: it ends worse
   than the all-refund outcome Herlihy's safety notion guarantees. *)
let unsafe_party m s =
  let n = Array.length m.Semantics.parties in
  let out_redeemed = Array.make n false in
  let in_refunded = Array.make n false in
  Array.iteri
    (fun i st ->
      if st = Swap_template.Redeemed then out_redeemed.(m.Semantics.edge_from.(i)) <- true;
      if st = Swap_template.Refunded then in_refunded.(m.Semantics.edge_to.(i)) <- true)
    s.edges;
  let rec go p =
    if p >= n then None
    else if out_redeemed.(p) && in_refunded.(p) then Some p
    else go (p + 1)
  in
  go 0

let m003 t =
  let m = t.Explore.model in
  match Explore.find_first t (fun n -> unsafe_party m n.Explore.state <> None) with
  | None -> ([], [])
  | Some id ->
      let v = violation t "M003-deviation-unsafe" id in
      let p = Option.get (unsafe_party m v.state) in
      ( [
          Diagnostic.error ~rule:v.rule ~location:(loc id)
            "party %a ends worse than all-refund although its executed history is conforming \
             (its only deviation is withholding): an outgoing deposit is redeemed while an \
             incoming one refunds; schedule:\n%s"
            (Semantics.pp_party m) p (render_schedule t v.schedule);
        ],
        [ v ] )

(* --- M004 ------------------------------------------------------------- *)

(* Product-level: no transition may change a decided witness component.
   Code-level: rerun the real SCw state machine (same probes as the
   S-pass) and demand its terminal decisions have no escaping
   transitions. *)
let m004 t =
  let m = t.Explore.model in
  if m.Semantics.profile <> Flow.Witness then []
  else begin
    let forks = ref [] in
    Explore.iter_succs t (fun id _mv tgt ->
        let before = (Explore.node t id).Explore.state.witness in
        let after = (Explore.node t tgt).Explore.state.witness in
        let decided = function W_redeem | W_refund -> true | W_none | W_undecided -> false in
        if decided before && after <> before then
          forks :=
            Diagnostic.error ~rule:"M004-witness-fork" ~location:(loc id)
              "the witness decision changed after being set: RDauth/RFauth are not absorbing \
               in the product"
            :: !forks);
    let code_level =
      match State_machine.explore (Probes.witness ()) with
      | Error e ->
          [
            Diagnostic.error ~rule:"M004-witness-fork" ~location:"witness contract"
              "cannot validate SCw against its code: deployment rejected (%s)" e;
          ]
      | Ok a ->
          let all = State_machine.nodes a in
          let cls_of id =
            (List.find (fun n -> n.State_machine.id = id) all).State_machine.cls
          in
          let terminal = function
            | State_machine.Redeemed | State_machine.Refunded -> true
            | State_machine.Published | State_machine.Other -> false
          in
          List.concat_map
            (fun n ->
              if not (terminal n.State_machine.cls) then []
              else
                List.filter_map
                  (fun (label, tgt) ->
                    if cls_of tgt = n.State_machine.cls then None
                    else
                      Some
                        (Diagnostic.error ~rule:"M004-witness-fork"
                           ~location:(Fmt.str "witness contract state #%d" n.State_machine.id)
                           "SCw transition %S leaves a decided state: the witness decision \
                            is forkable on chain"
                           label))
                  n.State_machine.succs)
            all
    in
    !forks @ code_level
  end

(* --- M006 ------------------------------------------------------------- *)

(* Cross-validation of lib/flow: every settled state the explorer can
   reach must have per-(party, chain) value deltas inside the static
   intervals. Exhaustive where the chaos sweep is sampled — the model
   is the ground truth the abstract interpretation claims to bound. *)
let m006 ?flow t =
  match flow with
  | None -> ([], [])
  | Some analysis -> (
      let m = t.Explore.model in
      let offenders s = Flow.violations analysis m.Semantics.graph s.edges in
      match
        Explore.find_first t (fun n ->
            Swap_template.settled n.Explore.state.edges && offenders n.Explore.state <> [])
      with
      | None -> ([], [])
      | Some id ->
          let v = violation t "M006-interval-unsound" id in
          ( [
              Diagnostic.error ~rule:v.rule ~location:(loc id)
                "a reachable settled state escapes the static value intervals (%a): the \
                 flow abstract interpretation is unsound on this graph; schedule:\n%s"
                (Fmt.list ~sep:(Fmt.any ", ") Flow.pp_violation)
                (offenders v.state) (render_schedule t v.schedule);
            ],
            [ v ] ))

(* --- M005 + summary --------------------------------------------------- *)

let m005 t =
  if t.Explore.truncated then
    [
      Diagnostic.warning ~rule:"M005-truncated" ~location:"product"
        "exploration hit the node bound; the verdict covers only the explored prefix \
         (raise --max-nodes)";
    ]
  else []

let summary t =
  [
    Diagnostic.info ~rule:"M000-summary" ~location:"product"
      "%d reachable global state(s), %d transition(s) (%d pruned by POR), peak frontier %d"
      t.Explore.n_nodes t.Explore.n_transitions t.Explore.por_skipped t.Explore.peak_frontier;
  ]

let check ?flow t =
  let d1, v1 = m001 t in
  let d2, v2 = m002 t in
  let d3, v3 = m003 t in
  let d4 = m004 t in
  let d6, v6 = m006 ?flow t in
  (summary t @ d1 @ d2 @ d3 @ d4 @ m005 t @ d6, v1 @ v2 @ v3 @ v6)
