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
open Ac3_chain
include Driver.Shared

type handle = Driver.handle

let src = Logs.Src.create "ac3.wn" ~doc:"AC3WN protocol"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  witness_chain : string;
  evidence_depth : int; (* burial required of deploy evidence *)
  decision_depth : int; (* d: burial required of the SCw decision *)
  poll_interval : float;
  timeout : float; (* give up running the simulation after this long *)
}

let default_config ~witness_chain =
  {
    witness_chain;
    evidence_depth = 2;
    decision_depth = 6;
    poll_interval = 2.0;
    timeout = 10_000.0;
  }

let phases =
  [
    { Span.phase = "scw_deploy"; opens = "scw_deployed"; closes = [ "scw_confirmed" ] };
    { Span.phase = "edge_deploy"; opens = "edge_deployed:"; closes = [ "edge_deployed:" ] };
    { Span.phase = "decision"; opens = "authorize_"; closes = [ "decision_confirmed:" ] };
    {
      Span.phase = "settle";
      opens = "decision_confirmed:";
      closes = [ "redeem_submitted:"; "refund_submitted:" ];
    };
  ]

type state = {
  config : config;
  graph : Ac2t.t;
  ms : Ac3_crypto.Multisig.t;
  registrar : Keys.public;
  mutable scw_deploy_txid : string option;
  mutable scw_id : string option;
  mutable authorize_attempt_at : float; (* for resubmission *)
}

let witness_node s t = Universe.gateway (Driver.universe t) s.config.witness_chain

let obs_labels = [ ("protocol", "ac3wn") ]

(* Evidence bundles are where AC3WN pays its validation bill: each
   carries the header chain from the checkpoint to the proven
   transaction, and the contract walks all of it. Header count and wire
   bytes are the cost observables. *)
let observe_evidence t ev =
  let m = Universe.metrics (Driver.universe t) in
  Metrics.incr (Metrics.counter m ~labels:obs_labels "core.evidence.built");
  Metrics.observe
    (Metrics.histogram m ~labels:obs_labels ~lo:0.0 ~hi:100.0 ~buckets:20 "core.evidence.headers")
    (float_of_int (List.length ev.Evidence.headers));
  Metrics.observe
    (Metrics.histogram m ~labels:obs_labels ~lo:0.0 ~hi:20_000.0 ~buckets:20
       "core.evidence.bytes")
    (float_of_int (Evidence.size ev))

let scw_state s t =
  match s.scw_id with
  | None -> None
  | Some scw -> (
      match Node.contract (witness_node s t) scw with
      | Some c -> Some c.Ledger.state
      | None -> None)

let scw_status s t =
  match scw_state s t with
  | None -> `Unknown
  | Some state ->
      if Witness_sc.state_is state Witness_sc.status_published then `P
      else if Witness_sc.state_is state Witness_sc.status_redeem_authorized then `RDauth
      else if Witness_sc.state_is state Witness_sc.status_refund_authorized then `RFauth
      else `Unknown

(* --- Individual protocol actions ------------------------------------- *)

(* Step 2 of the protocol summary: the registrar publishes SCw. *)
let try_register_scw s t p =
  if s.scw_deploy_txid = None then begin
    let universe = Driver.universe t in
    let args () =
      let checkpoints =
        List.map
          (fun chain -> (chain, Universe.stable_checkpoint universe chain))
          (Ac2t.chains s.graph)
      in
      Witness_sc.args ~graph:s.graph ~ms:s.ms ~checkpoints ~evidence_depth:s.config.evidence_depth
    in
    let wallet = Participant.wallet p s.config.witness_chain in
    match Wallet.deploy wallet ~code_id:Witness_sc.code_id ~args ~deposit:Amount.zero with
    | Ok (txid, contract_id) ->
        s.scw_deploy_txid <- Some txid;
        Driver.charge t ~payer:(Participant.public p) ~kind:Scw_deploy
          ~fee:(Universe.params universe s.config.witness_chain).Params.deploy_fee;
        Driver.record t "scw_deployed" ~attrs:[ ("scw", Hex.short contract_id) ]
    | Error e -> Log.debug (fun m -> m "SCw registration failed: %s" e)
  end

(* Watch the SCw deployment until it is confirmed on the witness chain. *)
let observe_scw_confirmation s t =
  match (s.scw_id, s.scw_deploy_txid) with
  | None, Some txid when Driver.confirmed t ~chain:s.config.witness_chain (Some txid) ->
      s.scw_id <- Some (Contract_iface.contract_id_of_deploy ~txid);
      Driver.record t "scw_confirmed"
  | _ -> ()

(* Step 3/4: a participant deploys the contracts for its outgoing edges,
   in parallel, once SCw is confirmed. *)
let try_deploy_edges s t p scw =
  Driver.deploy t p ~code_id:Permissionless_sc.code_id
    ~args:(fun _ es ->
      let witness_checkpoint =
        Universe.stable_checkpoint (Driver.universe t) s.config.witness_chain
      in
      Permissionless_sc.args ~recipient_pk:es.Driver.edge.Ac2t.to_pk
        ~witness_chain:s.config.witness_chain ~scw ~depth:s.config.decision_depth
        ~witness_checkpoint)
    ~label:(fun _ es contract_id ->
      ("edge_deployed:" ^ es.Driver.edge.Ac2t.chain, [ ("contract", Hex.short contract_id) ]))

(* Are all edge deployments buried deeply enough for evidence? *)
let all_edges_evidenced s t =
  Array.for_all
    (fun (es : Driver.edge_state) ->
      match es.deploy_txid with
      | None -> false
      | Some txid ->
          (* Evidence burial counts blocks on top of the transaction's
             block; confirmations counts the block itself. *)
          let node = Universe.gateway (Driver.universe t) es.edge.Ac2t.chain in
          Node.confirmations node txid > s.config.evidence_depth)
    (Driver.edges t)

(* Steps 3/5: submit a state-change request to SCw — redeem with
   evidence of every deployment, or (on abort) refund, which only
   verifies SCw is still in P. Any participant may do this; a few
   seconds of duplicate submissions are harmless (the second call is
   rejected by miners). *)
let try_authorize s t p scw ~fn ~args =
  let now = Universe.now (Driver.universe t) in
  let witness_params = Universe.params (Driver.universe t) s.config.witness_chain in
  let retry_after = 2.0 *. witness_params.Params.block_interval in
  let already_pending =
    s.authorize_attempt_at > 0.0 && now -. s.authorize_attempt_at < retry_after
  in
  if not already_pending then
    match args () with
    | None -> ()
    | Some args -> (
        let wallet = Participant.wallet p s.config.witness_chain in
        match Wallet.call wallet ~contract_id:scw ~fn ~args () with
        | Ok _txid ->
            s.authorize_attempt_at <- now;
            Driver.charge t ~payer:(Participant.public p) ~kind:Authorize
              ~fee:witness_params.Params.call_fee;
            Driver.record t (fn ^ "_submitted")
        | Error e -> Log.debug (fun m -> m "%s rejected: %s" fn e))

let redeem_evidence s t () =
  if not (all_edges_evidenced s t) then None
  else
    match scw_state s t with
    | None -> None
    | Some state ->
        let evidences =
          Array.to_list (Driver.edges t)
          |> List.map (fun (es : Driver.edge_state) ->
                 let chain = es.edge.Ac2t.chain in
                 match (es.deploy_txid, Witness_sc.checkpoint_for state chain) with
                 | Some txid, Ok checkpoint ->
                     let store = Node.store (Universe.gateway (Driver.universe t) chain) in
                     Evidence.build ~store ~checkpoint ~txid
                     |> Result.map_error (Printf.sprintf "%s: %s" chain)
                 | _ -> Error (chain ^ ": deployment or checkpoint missing"))
        in
        match List.find_map (function Error e -> Some e | Ok _ -> None) evidences with
        | Some e ->
            Log.debug (fun m -> m "redeem evidence failed: %s" e);
            None
        | None ->
            let evidences = List.map Result.get_ok evidences in
            List.iter (observe_evidence t) evidences;
            Some (Value.List (List.map Evidence.to_value evidences))

(* The decision call on SCw, read from the witness chain's call index
   on every poll: (fn, txid). SCw accepts one authorize call, so at most
   one of the two sits on the active chain, and a reorg that orphans it
   drops it from the index. *)
let locate_decision s t scw =
  let store = Node.store (witness_node s t) in
  let check fn =
    Option.map (fun (txid, _h) -> (fn, txid)) (Store.find_call store ~contract_id:scw ~fn)
  in
  match check Permissionless_sc.authorize_redeem_fn with
  | Some d -> Some d
  | None -> check Permissionless_sc.authorize_refund_fn

(* The decision, once buried at depth d (the commit/abort point of the
   protocol). *)
let confirmed_decision s t scw =
  match locate_decision s t scw with
  | Some (fn, txid) when Node.confirmations (witness_node s t) txid > s.config.decision_depth ->
      Some (fn, txid)
  | _ -> None

(* Step 5/6 completion: settle own edges once the decision is buried at
   depth d. Recipients redeem incoming edges; senders refund outgoing
   ones, each with evidence of the decision. *)
let try_settle_edges s t p (decision_fn, decision_txid) =
  let witness_store = Node.store (witness_node s t) in
  let redeeming = String.equal decision_fn Permissionless_sc.authorize_redeem_fn in
  Driver.settle t p
    (if redeeming then `Redeem else `Refund)
    ~ready:(fun _ _ -> true)
    ~args:(fun state ->
      (* The deployed contract recorded which witness checkpoint its
         evidence must extend. *)
      match
        Result.bind (Swap_template.get_commitment state) (fun commitment ->
            Result.bind (Value.field commitment "witness_checkpoint") Value.as_bytes)
      with
      | Error _ -> None
      | Ok bytes -> (
          let checkpoint = Ac3_crypto.Codec.decode Block.decode_header bytes in
          match Evidence.build ~store:witness_store ~checkpoint ~txid:decision_txid with
          | Error e ->
              Log.debug (fun m -> m "evidence for settlement failed: %s" e);
              None
          | Ok evidence ->
              observe_evidence t evidence;
              Some (Evidence.to_value evidence)))
    ~label:(fun _ es ->
      (if redeeming then "redeem_submitted:" else "refund_submitted:") ^ es.Driver.edge.Ac2t.chain)

(* One poll step for one participant. *)
let step s t p =
  observe_scw_confirmation s t;
  match s.scw_id with
  | None -> if String.equal (Participant.public p) s.registrar then try_register_scw s t p
  | Some scw -> (
      (match scw_status s t with
      | `P ->
          try_deploy_edges s t p scw;
          if Driver.abort_requested t then
            try_authorize s t p scw ~fn:"authorize_refund" ~args:(fun () -> Some Value.Unit)
          else try_authorize s t p scw ~fn:"authorize_redeem" ~args:(redeem_evidence s t)
      | `RDauth | `RFauth | `Unknown -> ());
      match confirmed_decision s t scw with
      | Some decision ->
          Driver.record t ("decision_confirmed:" ^ fst decision);
          try_settle_edges s t p decision
      | None -> ())

(* Witness-decision latency: first authorize submission to the decision
   call sitting at decision depth on the witness chain. Derived from the
   trace the protocol already records, so it cannot perturb a run. *)
let observe_decision_latency t =
  let first_with prefix =
    List.find_opt
      (fun (r : Trace.record) -> String.starts_with ~prefix r.Trace.label)
      (Trace.records (Driver.trace t))
  in
  match (first_with "authorize_", first_with "decision_confirmed:") with
  | Some a, Some d when d.Trace.time >= a.Trace.time ->
      Metrics.observe
        (Metrics.histogram
           (Universe.metrics (Driver.universe t))
           ~labels:obs_labels ~lo:0.0 ~hi:200.0 ~buckets:40 "core.witness.decision_latency")
        (d.Trace.time -. a.Trace.time)
  | _ -> ()

let launch universe ~config ~graph ~participants ?(hooks = []) ?abort_after () =
  let covered =
    List.for_all
      (fun pk -> List.exists (fun p -> Participant.public p = pk) participants)
      (Ac2t.participants graph)
  in
  if not covered then Error "missing participant"
  else begin
    (* Phase 1: off-chain agreement — every participant signs (D, t). *)
    let s =
      {
        config;
        graph;
        ms = Ac2t.multisign graph (List.map Participant.identity participants);
        registrar = List.hd (Ac2t.participants graph);
        scw_deploy_txid = None;
        scw_id = None;
        authorize_attempt_at = 0.0;
      }
    in
    Ok
      (Driver.launch universe ~graph ~participants ~hooks ~poll_interval:config.poll_interval
         ~abort_after
         {
           Driver.name = "ac3wn";
           phases;
           step = step s;
           (* Edges whose contract was never published are settled by a
              confirmed abort decision. *)
           aborted =
             (fun t ->
               match s.scw_id with
               | None -> false
               | Some scw -> (
                   match confirmed_decision s t scw with
                   | Some (fn, _) -> String.equal fn Permissionless_sc.authorize_refund_fn
                   | None -> false));
           abortable = (fun t -> scw_status s t = `P || s.scw_id = None);
           observe = observe_decision_latency;
         })
  end

(* Execute an AC2T end to end: {!launch}, drive the universe until the
   run settles (or the timeout), {!Driver.finish}. *)
let execute universe ~config ~graph ~participants ?hooks ?abort_after () =
  launch universe ~config ~graph ~participants ?hooks ?abort_after ()
  |> Result.map (Driver.execute ~timeout:config.timeout)
