(* The AC2T driver kernel: everything an atomic cross-chain transaction
   does that does not depend on who decides.

   The paper frames AC3TW and AC3WN as two-phase commit with the
   coordinator moved into a trusted witness (Trent) or a witness
   contract (SCw); the hashlock protocols of Nolan and Herlihy are the
   same swap with no coordinator at all, where knowing the secret is
   the decision. Either way the per-edge contracts are the 2PC
   participants: each is deployed, then redeemed or refunded once its
   owner learns the decision. This module runs that skeleton; each
   protocol supplies a [rule] — how it deploys, where its decision
   comes from, and which trace events delimit its phases.

   Every participant acts through an independent poll loop over its own
   view of the chains. A crashed participant simply skips its polls and
   resumes from chain state when it recovers. *)

module Engine = Ac3_sim.Engine
module Trace = Ac3_sim.Trace
module Metrics = Ac3_obs.Metrics
module Span = Ac3_obs.Span
module Keys = Ac3_crypto.Keys
module Ac2t = Ac3_contract.Ac2t
module Swap_template = Ac3_contract.Swap_template
module Protocol = Ac3_flow.Protocol
open Ac3_chain

let src = Logs.Src.create "ac3.driver" ~doc:"AC2T driver kernel"

module Log = (val Logs.src_log src : Logs.LOG)

module Shared = struct
  type kind = Scw_deploy | Edge_deploy | Authorize | Redeem | Refund

  type fee_entry = { payer : Keys.public; kind : kind; fee : Amount.t }

  type result = {
    graph : Ac2t.t;
    contracts : string option list;
    outcome : Outcome.t;
    atomic : bool;
    committed : bool;
    latency : float option; (* launch to last confirmed settlement *)
    trace : Protocol.event Trace.t;
    fees : fee_entry list;
  }

  let total_fees result = Amount.sum (List.map (fun f -> f.fee) result.fees)
end

include Shared

type edge_state = {
  edge : Ac2t.edge;
  mutable deploy_txid : string option;
  mutable contract_id : string option;
  mutable redeem_txid : string option;
  mutable refund_txid : string option;
}

type t = {
  universe : Universe.t;
  edges : edge_state array;
  trace : Protocol.event Trace.t;
  hooks : (Protocol.event * (unit -> unit)) list;
  mutable fees : fee_entry list;
  mutable abort_requested : bool;
}

let universe t = t.universe

let edges t = t.edges

let trace t = t.trace

let abort_requested t = t.abort_requested

let record t ?attrs event =
  if Trace.time_of t.trace event = None then begin
    Trace.record t.trace ~time:(Universe.now t.universe) ?attrs event;
    match List.assoc_opt event t.hooks with Some hook -> hook () | None -> ()
  end

let charge t ~payer ~kind ~fee = t.fees <- { payer; kind; fee } :: t.fees

let confirmed t ~chain = function
  | None -> false
  | Some txid ->
      let node = Universe.gateway t.universe chain in
      Node.confirmations node txid >= (Node.params node).Params.confirm_depth

let all_deployed t =
  Array.for_all (fun es -> confirmed t ~chain:es.edge.Ac2t.chain es.deploy_txid) t.edges

let deploy t p ~code_id ~ready ~args ~attrs =
  let pk = Participant.public p in
  Array.iteri
    (fun i es ->
      if String.equal es.edge.Ac2t.from_pk pk && es.deploy_txid = None && ready i es then begin
        let wallet = Participant.wallet p es.edge.Ac2t.chain in
        match
          Wallet.deploy wallet ~code_id ~args:(fun () -> args i es) ~deposit:es.edge.Ac2t.amount
        with
        | Ok (txid, contract_id) ->
            es.deploy_txid <- Some txid;
            es.contract_id <- Some contract_id;
            charge t ~payer:pk ~kind:Edge_deploy
              ~fee:(Universe.params t.universe es.edge.Ac2t.chain).Params.deploy_fee;
            record t ~attrs:(attrs es contract_id) (Protocol.Deploy i)
        | Error e ->
            Log.debug (fun m ->
                m "%s: %s deploy on %s failed: %s" (Participant.name p) code_id
                  es.edge.Ac2t.chain e)
      end)
    t.edges

(* Redeem is the recipient's call on an incoming edge, refund the
   sender's on an outgoing one; either needs the contract still
   published (not already settled the other way). The call's arguments
   are built only once the wallet has funded it. *)
let settle t p action ~ready ~args =
  let pk = Participant.public p in
  let redeeming = action = `Redeem in
  let fn = if redeeming then "redeem" else "refund" in
  Array.iteri
    (fun i es ->
      let owner = if redeeming then es.edge.Ac2t.to_pk else es.edge.Ac2t.from_pk in
      let pending = (if redeeming then es.redeem_txid else es.refund_txid) = None in
      match es.contract_id with
      | Some cid when String.equal owner pk && pending && ready i es -> (
          let node = Universe.gateway t.universe es.edge.Ac2t.chain in
          match Node.contract node cid with
          | Some c when Swap_template.is_published c.Ledger.state -> (
              let wallet = Participant.wallet p es.edge.Ac2t.chain in
              match
                Wallet.call wallet ~contract_id:cid ~fn ~args:(fun () -> args c.Ledger.state) ()
              with
              | Ok txid ->
                  if redeeming then es.redeem_txid <- Some txid else es.refund_txid <- Some txid;
                  charge t ~payer:pk
                    ~kind:(if redeeming then Redeem else Refund)
                    ~fee:(Universe.params t.universe es.edge.Ac2t.chain).Params.call_fee;
                  record t (if redeeming then Protocol.Redeem i else Protocol.Refund i)
              | Error e -> Log.debug (fun m -> m "%s on %s failed: %s" fn es.edge.Ac2t.chain e))
          | _ -> ())
      | _ -> ())
    t.edges

(* The phases of a protocol whose only trace events are per edge. *)
let edge_phases =
  let phase name is = { Span.phase = name; opens = is; closes = is } in
  [
    phase "deploy" (function Protocol.Deploy _ -> true | _ -> false);
    phase "redeem" (function Protocol.Redeem _ -> true | _ -> false);
    phase "refund" (function Protocol.Refund _ -> true | _ -> false);
  ]

type rule = {
  name : string;
  phases : Protocol.event Span.phase list;
  step : t -> Participant.t -> unit;
  aborted : t -> bool;
  abortable : t -> bool;
  observe : t -> unit;
}

type handle = {
  run : t;
  graph : Ac2t.t;
  rule : rule;
  start_time : float;
  stopped : bool ref;
}

let launch universe ~graph ~participants ~hooks ~poll_interval ~abort_after rule =
  let run =
    {
      universe;
      edges =
        Array.of_list
          (List.map
             (fun edge ->
               {
                 edge;
                 deploy_txid = None;
                 contract_id = None;
                 redeem_txid = None;
                 refund_txid = None;
               })
             (Ac2t.edges graph));
      trace = Trace.create ();
      hooks;
      fees = [];
      abort_requested = false;
    }
  in
  record run Protocol.Start;
  let start_time = Universe.now universe in
  (match abort_after with
  | Some delay ->
      ignore
        (Engine.schedule (Universe.engine universe) ~delay (fun () ->
             if rule.abortable run then begin
               run.abort_requested <- true;
               record run Protocol.Abort_requested
             end))
  | None -> ());
  (* One poll loop per participant, staggered so they do not act in
     lockstep. *)
  let stopped = ref false in
  List.iteri
    (fun i p ->
      let _stop : unit -> unit =
        Engine.schedule_repeating
          ~while_:(fun () -> not !stopped)
          (Universe.engine universe)
          ~first:(poll_interval *. (1.0 +. (0.1 *. float_of_int i)))
          ~every:poll_interval
          (fun () -> if not (Participant.is_crashed p) then rule.step run p)
      in
      ())
    participants;
  { run; graph; rule; start_time; stopped }

let edge_settled run es =
  confirmed run ~chain:es.edge.Ac2t.chain es.redeem_txid
  || confirmed run ~chain:es.edge.Ac2t.chain es.refund_txid

let settled h =
  let aborted = h.rule.aborted h.run in
  Array.for_all (fun es -> edge_settled h.run es || (es.deploy_txid = None && aborted)) h.run.edges

(* Fold the run into the universe's observability context. The phase
   spans are derived from the trace the protocol already records, so
   observing a run cannot perturb it. *)
let observe_run h ~finished =
  let run = h.run in
  let m = Universe.metrics run.universe in
  let labels = [ ("protocol", h.rule.name) ] in
  let count field =
    Array.fold_left (fun acc es -> if field es <> None then acc + 1 else acc) 0 run.edges
  in
  Metrics.add (Metrics.counter m ~labels "core.deploy.submitted") (count (fun es -> es.deploy_txid));
  Metrics.add (Metrics.counter m ~labels "core.redeem.submitted") (count (fun es -> es.redeem_txid));
  Metrics.add (Metrics.counter m ~labels "core.refund.submitted") (count (fun es -> es.refund_txid));
  Metrics.incr
    (Metrics.counter m ~labels (if finished then "core.run.completed" else "core.run.timed_out"));
  h.rule.observe run;
  let spans = Universe.spans run.universe in
  let root =
    Span.add spans ~attrs:labels ~name:h.rule.name ~start:h.start_time
      ~stop:(Universe.now run.universe) ()
  in
  Span.of_trace spans ~parent:root ~phases:h.rule.phases run.trace

let finish h =
  let run = h.run in
  h.stopped := true;
  let finished = settled h in
  if finished then record run Protocol.Completed;
  observe_run h ~finished;
  let contracts = Array.to_list (Array.map (fun es -> es.contract_id) run.edges) in
  let outcome = Outcome.evaluate run.universe ~graph:h.graph ~contracts in
  {
    graph = h.graph;
    contracts;
    outcome;
    atomic = Outcome.atomic outcome;
    committed = Outcome.committed outcome;
    latency = (if finished then Some (Universe.now run.universe -. h.start_time) else None);
    trace = run.trace;
    fees = run.fees;
  }

let execute ~timeout h =
  let _finished : bool = Universe.run_while h.run.universe ~timeout (fun () -> settled h) in
  finish h
