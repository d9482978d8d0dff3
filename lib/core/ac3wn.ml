(* AC3WN: the atomic cross-chain commitment protocol with a permissionless
   witness network (paper Sec 4.2).

   Protocol phases (Figure 9):
     1. a participant registers ms(D) in a witness smart contract SCw on
        the witness blockchain (state P);
     2. all participants deploy their per-edge contracts *in parallel* on
        the asset blockchains, conditioning redeem/refund on SCw;
     3. any participant submits a state-change request with evidence of
        all deployments; the witness miners verify and move SCw to
        RDauth — or, on abort, to RFauth;
     4. once the decision is buried under d blocks, participants redeem
        (or refund) their contracts in parallel with evidence of the
        decision.

   As a rule for the shared driver, SCw is the 2PC coordinator and the
   decision source is its state change confirmed at depth d. All
   coordination flows through the blockchains themselves (plus the
   initial off-chain agreement on the graph): any participant can drive
   SCw, and a recovered participant resumes from chain state, which is
   what gives AC3WN its all-or-nothing guarantee. *)

module Trace = Ac3_sim.Trace
module Metrics = Ac3_obs.Metrics
module Span = Ac3_obs.Span
module Keys = Ac3_crypto.Keys
module Hex = Ac3_crypto.Hex
module Ac2t = Ac3_contract.Ac2t
module Witness_sc = Ac3_contract.Witness_sc
module Permissionless_sc = Ac3_contract.Permissionless_sc
module Evidence = Ac3_contract.Evidence
module Swap_template = Ac3_contract.Swap_template
module Protocol = Ac3_flow.Protocol
module Guard = Protocol.Witness
open Ac3_chain
include Driver.Shared

type handle = Driver.handle

let src = Logs.Src.create "ac3.wn" ~doc:"AC3WN protocol"

module Log = (val Logs.src_log src : Logs.LOG)

let witness_chain = "witness"

(* Burial SCw requires of each edge deployment's evidence. *)
let evidence_depth = 2

let authorizing = function Protocol.Authorize_submitted _ -> true | _ -> false

let decided = function Protocol.Decision_confirmed _ -> true | _ -> false

let phases =
  let deployed = function Protocol.Deploy _ -> true | _ -> false in
  [
    {
      Span.phase = "scw_deploy";
      opens = ( = ) Protocol.Scw_deployed;
      closes = ( = ) Protocol.Scw_confirmed;
    };
    { Span.phase = "edge_deploy"; opens = deployed; closes = deployed };
    { Span.phase = "decision"; opens = authorizing; closes = decided };
    {
      Span.phase = "settle";
      opens = decided;
      closes = (function Protocol.Redeem _ | Protocol.Refund _ -> true | _ -> false);
    };
  ]

type state = {
  witness_chain : string; (* where SCw lives *)
  graph : Ac2t.t;
  ms : Ac3_crypto.Multisig.t;
  registrar : Keys.public;
  witness : Node.t; (* the witness chain's gateway, resolved at launch *)
  witness_depth : int; (* its confirmation depth *)
  decision_depth : int; (* d: burial required of the SCw decision *)
  mutable scw_deploy_txid : string option;
  mutable scw_id : string option;
  mutable authorize_attempt_at : float; (* for resubmission *)
}

let obs_labels = [ ("protocol", "ac3wn") ]

(* Evidence bundles are where AC3WN pays its validation bill: each
   carries the header chain from the checkpoint to the proven
   transaction, and the contract walks all of it. Header count and wire
   bytes are the cost observables. A bundle is built only inside a call
   the wallet has funded, and its bytes are read off the argument the
   call carries, so each bundle is encoded once. *)
let evidence_arg t ev =
  let m = Universe.metrics (Driver.universe t) in
  let arg = Evidence.to_value ev in
  Metrics.incr (Metrics.counter m ~labels:obs_labels "core.evidence.built");
  Metrics.observe
    (Metrics.histogram m ~labels:obs_labels ~lo:0.0 ~hi:100.0 ~buckets:20 "core.evidence.headers")
    (float_of_int (List.length ev.Evidence.headers));
  Result.iter
    (fun bytes ->
      Metrics.observe
        (Metrics.histogram m ~labels:obs_labels ~lo:0.0 ~hi:20_000.0 ~buckets:20
           "core.evidence.bytes")
        (float_of_int (String.length bytes)))
    (Value.as_bytes arg);
  arg

let scw_state s =
  match s.scw_id with
  | None -> None
  | Some scw -> (
      match Node.contract s.witness scw with
      | Some c -> Some c.Ledger.state
      | None -> None)

(* SCw's decision at the witness gateway's tip, or [None] while SCw is
   not readable there. *)
let scw_decision s =
  match scw_state s with
  | None -> None
  | Some state ->
      if Witness_sc.state_is state Witness_sc.status_published then Some Protocol.Undecided
      else if Witness_sc.state_is state Witness_sc.status_redeem_authorized then
        Some Protocol.Commit
      else if Witness_sc.state_is state Witness_sc.status_refund_authorized then
        Some Protocol.Abort
      else None

(* The SCw call that takes each decision. *)
let authorize_fns =
  [
    (Protocol.Commit, Permissionless_sc.authorize_redeem_fn);
    (Protocol.Abort, Permissionless_sc.authorize_refund_fn);
  ]

(* --- Individual protocol actions ------------------------------------- *)

(* Step 2 of the protocol summary: the registrar publishes SCw. *)
let try_register_scw s t p =
  if Option.is_none s.scw_deploy_txid then begin
    let universe = Driver.universe t in
    let args () =
      let checkpoints =
        List.map
          (fun chain -> (chain, Universe.stable_checkpoint universe chain))
          (Ac2t.chains s.graph)
      in
      Witness_sc.args ~graph:s.graph ~ms:s.ms ~checkpoints ~evidence_depth
    in
    let wallet = Participant.wallet p s.witness_chain in
    match Wallet.deploy wallet ~code_id:Witness_sc.code_id ~args ~deposit:Amount.zero with
    | Ok (txid, contract_id) ->
        s.scw_deploy_txid <- Some txid;
        Driver.charge t ~payer:(Participant.public p) ~kind:Scw_deploy
          ~fee:(Universe.params universe s.witness_chain).Params.deploy_fee;
        Driver.record t Protocol.Scw_deployed ~attrs:[ ("scw", Hex.short contract_id) ]
    | Error e -> Log.debug (fun m -> m "SCw registration failed: %s" (Wallet.refusal_message e))
  end

(* Watch the SCw deployment until it is confirmed on the witness chain. *)
let observe_scw_confirmation s t =
  match (s.scw_id, s.scw_deploy_txid) with
  | None, Some txid when Node.confirmations s.witness txid >= s.witness_depth ->
      s.scw_id <- Some (Contract_iface.contract_id_of_deploy ~txid);
      Driver.record t Protocol.Scw_confirmed
  | _ -> ()

(* Step 3/4: a participant deploys the contracts for its outgoing edges,
   in parallel, once SCw is confirmed and while it is undecided. *)
let try_deploy_edges s t p scw decision =
  Driver.deploy t p ~code_id:Permissionless_sc.code_id
    ~ready:(fun _ _ -> Guard.deploy decision)
    ~args:(fun _ es ->
      let witness_checkpoint =
        Universe.stable_checkpoint (Driver.universe t) s.witness_chain
      in
      Permissionless_sc.args ~recipient_pk:es.Driver.edge.Ac2t.to_pk
        ~witness_chain:s.witness_chain ~scw ~depth:s.decision_depth
        ~witness_checkpoint)
    ~attrs:(fun _ contract_id -> [ ("contract", Hex.short contract_id) ])

(* Are all edge deployments buried deeply enough for evidence? *)
let all_edges_evidenced t =
  Array.for_all
    (fun (es : Driver.edge_state) ->
      match es.deploy_txid with
      | None -> false
      | Some txid ->
          (* Evidence burial counts blocks on top of the transaction's
             block; confirmations counts the block itself. *)
          Node.confirmations es.node txid > evidence_depth)
    (Driver.edges t)

(* Steps 3/5: submit a state-change request to SCw — redeem with
   evidence of every deployment, or (on abort) refund, which only
   verifies SCw is still in P. Any participant may do this; a few
   seconds of duplicate submissions are harmless (the second call is
   rejected by miners). *)
let try_authorize s t p scw decision ~args =
  let fn = List.assoc decision authorize_fns in
  let now = Universe.now (Driver.universe t) in
  let witness_params = Universe.params (Driver.universe t) s.witness_chain in
  let retry_after = 2.0 *. witness_params.Params.block_interval in
  let already_pending =
    s.authorize_attempt_at > 0.0 && now -. s.authorize_attempt_at < retry_after
  in
  if not already_pending then
    let wallet = Participant.wallet p s.witness_chain in
    match Wallet.call wallet ~contract_id:scw ~fn ~args () with
    | Ok _txid ->
        s.authorize_attempt_at <- now;
        Driver.charge t ~payer:(Participant.public p) ~kind:Authorize
          ~fee:witness_params.Params.call_fee;
        Driver.record t (Protocol.Authorize_submitted decision)
    | Error e -> Log.debug (fun m -> m "%s rejected: %s" fn (Wallet.refusal_message e))

(* authorize_redeem's argument: one bundle per edge, proving its
   deployment against the checkpoint SCw registered for that chain. *)
let redeem_evidence s t () =
  match scw_state s with
  | None -> Error "SCw not readable"
  | Some state -> (
      let evidences =
        Array.to_list (Driver.edges t)
        |> List.map (fun (es : Driver.edge_state) ->
               let chain = es.edge.Ac2t.chain in
               match (es.deploy_txid, Witness_sc.checkpoint_for state chain) with
               | Some txid, Ok checkpoint ->
                   Evidence.build ~store:(Node.store es.node) ~checkpoint ~txid
                   |> Result.map_error (Printf.sprintf "%s: %s" chain)
               | _ -> Error (chain ^ ": deployment or checkpoint missing"))
      in
      match List.find_map (function Error e -> Some e | Ok _ -> None) evidences with
      | Some e -> Error ("redeem evidence failed: " ^ e)
      | None -> Ok (Value.List (List.map (fun ev -> evidence_arg t (Result.get_ok ev)) evidences)))

(* The decision call on SCw once buried at depth d (the commit/abort
   point of the protocol): (decision, txid). It is read from the witness
   chain's call index on every poll. SCw accepts one authorize call, so
   at most one of the two sits on the active chain, and a reorg that
   orphans it drops it from the index. *)
let confirmed_decision s scw =
  List.find_map
    (fun (decision, fn) ->
      match Store.find_call (Node.store s.witness) ~contract_id:scw ~fn with
      | Some (txid, _h) when Node.confirmations s.witness txid > s.decision_depth ->
          Some (decision, txid)
      | _ -> None)
    authorize_fns

(* Step 5/6 completion: settle own edges once the decision is buried at
   depth d. Recipients redeem incoming edges; senders refund outgoing
   ones, each with evidence of the decision. *)
let try_settle_edges s t p action decision_txid =
  let witness_store = Node.store s.witness in
  Driver.settle t p action
    ~ready:(fun _ _ -> true)
    ~args:(fun state ->
      (* The deployed contract recorded which witness checkpoint its
         evidence must extend. *)
      match
        Result.bind (Swap_template.get_commitment state) (fun commitment ->
            Result.bind (Value.field commitment "witness_checkpoint") Value.as_bytes)
      with
      | Error e -> Error ("no witness checkpoint: " ^ e)
      | Ok bytes -> (
          let checkpoint = Ac3_crypto.Codec.decode Block.decode_header bytes in
          match Evidence.build ~store:witness_store ~checkpoint ~txid:decision_txid with
          | Error e -> Error ("evidence for settlement failed: " ^ e)
          | Ok evidence -> Ok (evidence_arg t evidence)))

(* One poll step for one participant. *)
let step s t p =
  observe_scw_confirmation s t;
  match s.scw_id with
  | None -> if String.equal (Participant.public p) s.registrar then try_register_scw s t p
  | Some scw -> (
      (match scw_decision s with
      | Some d ->
          try_deploy_edges s t p scw d;
          if Guard.abort d ~abort_requested:(Driver.abort_requested t) then
            try_authorize s t p scw Protocol.Abort ~args:(fun () -> Ok Value.Unit)
          else if Guard.commit d ~all_published:(all_edges_evidenced t) then
            try_authorize s t p scw Protocol.Commit ~args:(redeem_evidence s t)
      | None -> ());
      match confirmed_decision s scw with
      | Some (d, txid) ->
          Driver.record t (Protocol.Decision_confirmed d);
          if Guard.redeem d then try_settle_edges s t p `Redeem txid;
          if Guard.refund d then try_settle_edges s t p `Refund txid
      | None -> ())

(* Witness-decision latency: first authorize submission to the decision
   call sitting at decision depth on the witness chain. Derived from the
   trace the protocol already records, so it cannot perturb a run. *)
let observe_decision_latency t =
  let first p =
    List.find_map
      (fun (r : _ Trace.record) -> if p r.Trace.event then Some r.Trace.time else None)
      (Trace.records (Driver.trace t))
  in
  match (first authorizing, first decided) with
  | Some a, Some d when d >= a ->
      Metrics.observe
        (Metrics.histogram
           (Universe.metrics (Driver.universe t))
           ~labels:obs_labels ~lo:0.0 ~hi:200.0 ~buckets:40 "core.witness.decision_latency")
        (d -. a)
  | _ -> ()

let launch universe ?(witness_chain = witness_chain) ?poll_interval ~graph ~participants
    ?(hooks = []) ?abort_after ?decision_depth () =
  let covered =
    List.for_all
      (fun pk -> List.exists (fun p -> String.equal (Participant.public p) pk) participants)
      (Ac2t.participants graph)
  in
  if not covered then Error "missing participant"
  else begin
    (* Phase 1: off-chain agreement — every participant signs (D, t). *)
    let witness = Universe.gateway universe witness_chain in
    let witness_depth = (Node.params witness).Params.confirm_depth in
    let s =
      {
        witness_chain;
        graph;
        ms = Ac2t.multisign graph (List.map Participant.identity participants);
        registrar = List.hd (Ac2t.participants graph);
        witness;
        witness_depth;
        decision_depth = Option.value decision_depth ~default:witness_depth;
        scw_deploy_txid = None;
        scw_id = None;
        authorize_attempt_at = 0.0;
      }
    in
    Ok
      (Driver.launch universe ~graph ~participants ~hooks ?poll_interval ~abort_after
         {
           Driver.name = "ac3wn";
           phases;
           step = step s;
           (* Edges whose contract was never published are settled by a
              confirmed abort decision. *)
           aborted =
             (fun _ ->
               match Option.bind s.scw_id (confirmed_decision s) with
               | Some (Protocol.Abort, _) -> true
               | _ -> false);
           abortable =
             (fun _ -> Option.is_none s.scw_id || scw_decision s = Some Protocol.Undecided);
           observe = observe_decision_latency;
         })
  end

(* Execute an AC2T end to end: {!launch}, drive the universe until the
   run settles (or the timeout), {!Driver.finish}. *)
let execute universe ~timeout ?poll_interval ~graph ~participants ?hooks ?abort_after
    ?decision_depth () =
  launch universe ?poll_interval ~graph ~participants ?hooks ?abort_after ?decision_depth ()
  |> Result.map (fun h -> List.hd (Driver.execute ~timeout [ h ]))
