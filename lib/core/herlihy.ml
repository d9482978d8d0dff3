(* The single-leader atomic cross-chain swap protocol of Herlihy (2018),
   generalizing Nolan's two-party swap — the baseline AC3WN is evaluated
   against (paper Sec 6, Figures 8 and 10).

   The leader creates a secret s and hashlock h = H(s). Contracts are
   HTLCs locked under h, deployed *sequentially* along the paths from the
   leader: a participant only publishes its outgoing contracts after all
   of its incoming contracts are confirmed (otherwise a counterparty
   could take its asset without reciprocation). Once every contract is
   published, the leader redeems its incoming contracts, revealing s on
   chain; the secret then propagates backwards as each participant
   extracts it from the redeem transactions of its outgoing contracts and
   uses it to redeem its incoming ones. Timelocks decrease with distance
   from the leader so an honest participant always has time to redeem —
   *if it is alive*. A crash that outlasts a timelock breaks atomicity
   (Sec 1), which experiment E8 reproduces.

   Deployment takes Diam(D) sequential rounds and redemption another
   Diam(D), giving the 2·Δ·Diam(D) latency of Figure 8.

   As a rule for the shared driver there is no coordinator: the decision
   source is knowledge of the secret, and the timelocks decide refunds. *)

module Span = Ac3_obs.Span
module Keys = Ac3_crypto.Keys
module Sha256 = Ac3_crypto.Sha256
module Ac2t = Ac3_contract.Ac2t
module Htlc = Ac3_contract.Htlc
open Ac3_chain
include Driver.Shared

type handle = Driver.handle

type config = {
  delta : float; (* Δ: the timelock unit (publish + public recognition) *)
  timelock_slack : float; (* extra Δs of margin on every timelock *)
  poll_interval : float;
  timeout : float;
}

let default_config ~delta =
  { delta; timelock_slack = 2.0; poll_interval = 2.0; timeout = 10_000.0 }

let phases =
  [
    { Span.phase = "deploy"; opens = "deploy:"; closes = [ "deploy:" ] };
    { Span.phase = "redeem"; opens = "redeem:"; closes = [ "redeem:" ] };
    { Span.phase = "refund"; opens = "refund:"; closes = [ "refund:" ] };
  ]

type state = {
  leader : Keys.public;
  secret : string;
  hashlock : string;
  timelocks : float array; (* absolute expiry per edge, graph order *)
  (* Which participants currently know the secret (leader from the start;
     others learn it from on-chain redeem transactions). *)
  mutable knows_secret : Keys.public list;
}

(* A participant may publish its outgoing contracts once every contract
   it receives on is safely confirmed (the leader starts unconditionally:
   round 0). *)
let try_deploy s t p =
  let pk = Participant.public p in
  let incoming_confirmed () =
    Array.for_all
      (fun (es : Driver.edge_state) ->
        (not (String.equal es.edge.Ac2t.to_pk pk))
        || Driver.confirmed t ~chain:es.edge.Ac2t.chain es.deploy_txid)
      (Driver.edges t)
  in
  if String.equal pk s.leader || incoming_confirmed () then
    (* A non-leader uses the hashlock it observed in its incoming
       contracts; in this implementation that equals [s.hashlock] once
       any incoming contract exists. *)
    Driver.deploy t p ~code_id:Htlc.code_id
      ~args:(fun i es ->
        Htlc.args ~recipient_pk:es.edge.Ac2t.to_pk ~hashlock:s.hashlock ~timelock:s.timelocks.(i))
      ~label:(fun i es _ -> (Printf.sprintf "deploy:%d" i, [ ("chain", es.edge.Ac2t.chain) ]))

(* Scan the redeem calls of the participant's outgoing contracts for the
   revealed secret. *)
let learn_secret s t p =
  let pk = Participant.public p in
  if not (List.mem pk s.knows_secret) then begin
    let learned =
      Array.exists
        (fun (es : Driver.edge_state) ->
          String.equal es.edge.Ac2t.from_pk pk
          &&
          match es.contract_id with
          | None -> false
          | Some cid ->
              let store = Node.store (Universe.gateway (Driver.universe t) es.edge.Ac2t.chain) in
              List.exists
                (fun (_txid, fn, args) ->
                  String.equal fn "redeem"
                  &&
                  match args with
                  | Value.Bytes s' -> String.equal (Sha256.digest s') s.hashlock
                  | _ -> false)
                (Store.calls_on store ~contract_id:cid))
        (Driver.edges t)
    in
    if learned then begin
      s.knows_secret <- pk :: s.knows_secret;
      Driver.record t ("learned_secret:" ^ Ac3_crypto.Hex.short ~n:6 pk)
    end
  end

(* Redeem incoming contracts once the secret is known. The leader only
   starts after observing that the entire graph is published (revealing s
   earlier would let early recipients cash out while later contracts are
   missing). *)
let try_redeem s t p =
  let pk = Participant.public p in
  if List.mem pk s.knows_secret && ((not (String.equal pk s.leader)) || Driver.all_deployed t) then
    Driver.settle t p `Redeem
      ~ready:(fun _ _ -> true)
      ~args:(fun _ -> Some (Htlc.redeem_args ~secret:s.secret))
      ~label:(fun i _ -> Printf.sprintf "redeem:%d" i)

(* Refund expired outgoing contracts. This is each sender's rational
   self-protection — and the source of atomicity violations when a
   counterparty crashed. *)
let try_refund s t p =
  let now = Universe.now (Driver.universe t) in
  Driver.settle t p `Refund
    ~ready:(fun i (es : Driver.edge_state) -> es.redeem_txid = None && now >= s.timelocks.(i))
    ~args:(fun _ -> Some Htlc.refund_args)
    ~label:(fun i _ -> Printf.sprintf "refund:%d" i)

let launch universe ~config ~graph ~participants ?(hooks = []) ?(obs_name = "herlihy") () =
  (* Timelocks decrease with distance from the leader: contracts
     deployed later expire sooner, so everyone who acts on time can
     redeem before their own lock expires. [assign] refuses graphs a
     single leader cannot execute (Sec 5.3). *)
  Ac3_verify.Timelock.assign ~graph ~delta:config.delta ~timelock_slack:config.timelock_slack
    ~start_time:(Universe.now universe)
  |> Result.map (fun assignment ->
       let leader = List.hd (Ac2t.participants graph) in
       let secret = Sha256.digest_list [ "herlihy-secret"; Ac2t.to_bytes graph ] in
       let s =
         {
           leader;
           secret;
           hashlock = Htlc.hashlock_of_secret secret;
           timelocks =
             Array.of_list (List.map (fun a -> a.Ac3_verify.Timelock.expiry) assignment);
           knows_secret = [ leader ];
         }
       in
       Driver.launch universe ~graph ~participants ~hooks ~poll_interval:config.poll_interval
         ~abort_after:None
         {
           Driver.name = obs_name;
           phases;
           step =
             (fun t p ->
               learn_secret s t p;
               try_deploy s t p;
               try_redeem s t p;
               try_refund s t p);
           aborted = (fun _ -> false);
           abortable = (fun _ -> false);
           observe = ignore;
         })

let execute universe ~config ~graph ~participants ?hooks ?obs_name () =
  launch universe ~config ~graph ~participants ?hooks ?obs_name ()
  |> Result.map (Driver.execute ~timeout:config.timeout)
