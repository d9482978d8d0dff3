(* The M-rule family: cross-contract atomicity checks over the explored
   product automaton.

     M001-mixed-settlement   some interleaving redeems one deposit and
                             refunds another (Sec 3's "deposit lost")
     M002-global-deadlock    a reachable state cannot settle even after
                             every crashed party recovers
     M003-deviation-unsafe   a party whose executed history is conforming
                             (a crash is pure withholding) ends worse
                             than all-refund: an outgoing deposit is
                             redeemed while an incoming one refunds;
                             one pass over a state's edges, O(E)
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

type violation = {
  rule : string;
  node : int;
  state : Global_state.t;
  schedule : Semantics.move list;
}

let violation t rule id =
  { rule; node = id; state = Explore.state t id; schedule = Explore.schedule t id }

let loc id = Fmt.str "product state #%d" id

let render_schedule t moves = Fmt.str "%a" (Semantics.pp_schedule t.Explore.model) moves

(* --- M001 ------------------------------------------------------------- *)

let m001 t =
  match Explore.find_first t Global_state.mixed_at with
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
  match Explore.find_first t (fun b pos -> not (can_settle b pos)) with
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
   than the all-refund outcome Herlihy's safety notion guarantees.

   One pass over the edge bytes finds all of them at once, for the
   parties [base .. base + block - 1]: bit [p - base] of [paid] is set
   when party [p] sends a redeemed edge, of [lost] when it receives a
   refunded one. Their lowest common bit is the lowest unsafe party.
   Graphs above [block] parties repeat the pass per block, so a state
   costs O(E) for up to [block] parties. A block stops short of the
   sign bit, so a mask is never negative. The scan reads the state's
   status bytes in place, over the edge and party counts of its own
   header. Top-level recursion, so it allocates no closure per state. *)
let block = 62

let bit p base = if p >= base && p < base + block then 1 lsl (p - base) else 0

let redeemed = Global_state.status_char Swap_template.Redeemed

let refunded = Global_state.status_char Swap_template.Refunded

(* Edges [i, ne), whose status bytes start at [e0]. *)
let rec victims m b e0 ne base i paid lost =
  if i >= ne then paid land lost
  else
    let st = Bytes.get b (e0 + i) in
    if st = redeemed then
      victims m b e0 ne base (i + 1) (paid lor bit m.Semantics.edge_from.(i) base) lost
    else if st = refunded then
      victims m b e0 ne base (i + 1) paid (lost lor bit m.Semantics.edge_to.(i) base)
    else victims m b e0 ne base (i + 1) paid lost

let rec lowest_bit mask p = if mask land 1 = 1 then p else lowest_bit (mask lsr 1) (p + 1)

(* The lowest unsafe party index from block [base] on, or -1. *)
let rec unsafe_from m b pos base =
  if base >= Global_state.n_parties_at b pos then -1
  else
    let both =
      victims m b (pos + Global_state.header) (Global_state.n_edges_at b pos) base 0 0 0
    in
    if both <> 0 then lowest_bit both base else unsafe_from m b pos (base + block)

let unsafe_party_at m b pos = unsafe_from m b pos 0

let unsafe_party m (s : Global_state.t) =
  unsafe_party_at m (Bytes.unsafe_of_string (s :> string)) 0

let m003 t =
  let m = t.Explore.model in
  match Explore.find_first t (fun b pos -> unsafe_party_at m b pos >= 0) with
  | None -> ([], [])
  | Some id ->
      let v = violation t "M003-deviation-unsafe" id in
      let p = unsafe_party m v.state in
      ( [
          Diagnostic.error ~rule:v.rule ~location:(loc id)
            "party %a ends worse than all-refund although its executed history is conforming \
             (its only deviation is withholding): an outgoing deposit is redeemed while an \
             incoming one refunds; schedule:\n%s"
            (Semantics.pp_party m) p (render_schedule t v.schedule);
        ],
        [ v ] )

(* --- M004 ------------------------------------------------------------- *)

(* Product-level: no transition may change a decided witness component;
   the decision bytes of each transition's source and target are read
   where they lie. Code-level: rerun the real SCw state machine (same
   probes as the S-pass) and demand its terminal decisions have no
   escaping transitions. *)
let m004 t =
  let m = t.Explore.model in
  if m.Semantics.profile <> Flow.Witness then []
  else begin
    let forks = ref [] in
    let decision id =
      Global_state.decision_at (Explore.state_bytes t id) (Explore.state_pos t id)
    in
    Explore.iter_succs t (fun id _mv tgt ->
        let before = decision id and after = decision tgt in
        if before <> Ac3_flow.Protocol.Undecided && after <> before then
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

module Edge_tbl = Hashtbl.Make (String)

(* Cross-validation of lib/flow: every settled state the explorer can
   reach must have per-(party, chain) value deltas inside the static
   intervals. Exhaustive where the chaos sweep is sampled — the model
   is the ground truth the abstract interpretation claims to bound. *)
let m006 ?flow t =
  match flow with
  | None -> ([], [])
  | Some analysis -> (
      let m = t.Explore.model in
      (* The answer depends on the edge statuses alone, so it is computed
         once per distinct edge vector, keyed by the status bytes, and
         edges are decoded only for settled states. *)
      let memo = Edge_tbl.create 64 in
      let offenders b pos =
        let key = Bytes.sub_string b (pos + Global_state.header) (Global_state.n_edges_at b pos) in
        match Edge_tbl.find_opt memo key with
        | Some v -> v
        | None ->
            let v = Flow.violations analysis m.Semantics.graph (Global_state.edges_at b pos) in
            Edge_tbl.replace memo key v;
            v
      in
      match
        Explore.find_first t (fun b pos -> Global_state.settled_at b pos && offenders b pos <> [])
      with
      | None -> ([], [])
      | Some id ->
          let v = violation t "M006-interval-unsound" id in
          ( [
              Diagnostic.error ~rule:v.rule ~location:(loc id)
                "a reachable settled state escapes the static value intervals (%a): the \
                 flow abstract interpretation is unsound on this graph; schedule:\n%s"
                (Fmt.list ~sep:(Fmt.any ", ") Flow.pp_violation)
                (offenders (Explore.state_bytes t id) (Explore.state_pos t id))
                (render_schedule t v.schedule);
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
