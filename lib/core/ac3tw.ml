(* AC3TW: atomic cross-chain commitment with a centralized trusted
   witness (paper Sec 4.1).

   Protocol: participants multisign the graph and register ms(D) at
   Trent; everyone deploys their per-edge contracts concurrently, with
   both commitment schemes bound to (ms(D), PK_T); once all contracts are
   confirmed, any participant requests T(ms(D), RD) from Trent and all
   recipients redeem with it in parallel. On abort, T(ms(D), RF) lets all
   senders refund. Trent's key/value store makes the two signatures
   mutually exclusive.

   As a rule for the shared driver, Trent is the 2PC coordinator and his
   signature is the decision source. The protocol is atomic but hinges
   on a trusted, available Trent — the single point of failure AC3WN
   removes. *)

module Ac2t = Ac3_contract.Ac2t
module Centralized_sc = Ac3_contract.Centralized_sc
module Protocol = Ac3_flow.Protocol
module Guard = Protocol.Witness
include Driver.Shared

let src = Logs.Src.create "ac3.tw" ~doc:"AC3TW protocol"

module Log = (val Logs.src_log src : Logs.LOG)

type config = { poll_interval : float; timeout : float }

let default_config = { poll_interval = 2.0; timeout = 10_000.0 }

(* Trent's decision once he gives one, with his signature on it: the
   secret every contract's redeem or refund takes. *)
type state = {
  trent : Trent.t;
  ms_id : string;
  mutable signed : (Protocol.decision * Ac3_crypto.Keys.signature) option;
}

let decision s = match s.signed with Some (d, _) -> d | None -> Protocol.Undecided

(* Ask Trent for a decision until he gives one: the refund signature
   once an abort was requested, otherwise the redeem signature once
   every contract is confirmed. *)
let try_decide s t =
  let d = decision s in
  if Guard.abort d ~abort_requested:(Driver.abort_requested t) then begin
    match Trent.request_refund s.trent ~ms_id:s.ms_id with
    | Ok sg ->
        s.signed <- Some (Protocol.Abort, sg);
        Driver.record t (Protocol.Signed Protocol.Abort)
    | Error e -> Log.debug (fun m -> m "Trent refused refund: %s" e)
  end
  else if Guard.commit d ~all_published:(Driver.all_deployed t) then begin
    let contracts =
      Array.to_list
        (Array.map (fun (es : Driver.edge_state) -> Option.get es.contract_id) (Driver.edges t))
    in
    match Trent.request_redeem s.trent ~ms_id:s.ms_id ~contracts with
    | Ok sg ->
        s.signed <- Some (Protocol.Commit, sg);
        Driver.record t (Protocol.Signed Protocol.Commit)
    | Error e -> Log.debug (fun m -> m "Trent refused redeem: %s" e)
  end

let step s t p =
  Driver.deploy t p ~code_id:Centralized_sc.code_id
    ~ready:(fun _ _ -> Guard.deploy (decision s))
    ~args:(fun _ es ->
      Centralized_sc.args ~recipient_pk:es.Driver.edge.Ac2t.to_pk ~ms_id:s.ms_id
        ~trent_pk:(Trent.public s.trent))
    ~attrs:(fun _ _ -> []);
  try_decide s t;
  let settle action signature =
    Driver.settle t p action
      ~ready:(fun _ _ -> true)
      ~args:(fun _ -> Ok (Centralized_sc.secret_args signature))
  in
  match s.signed with
  | Some (d, sg) ->
      if Guard.redeem d then settle `Redeem sg;
      if Guard.refund d then settle `Refund sg
  | None -> ()

let execute universe ~config ~trent ~graph ~participants ?abort_after () =
  (* Phase 1: multisign and register at Trent. *)
  let ms = Ac2t.multisign graph (List.map Participant.identity participants) in
  Trent.register trent ~graph ~ms
  |> Result.map (fun ms_id ->
         let s = { trent; ms_id; signed = None } in
         Driver.execute ~timeout:config.timeout
           (Driver.launch universe ~graph ~participants ~hooks:[]
              ~poll_interval:config.poll_interval ~abort_after
              {
                Driver.name = "ac3tw";
                phases = Driver.edge_phases;
                step = step s;
                aborted = (fun _ -> decision s = Protocol.Abort);
                abortable = (fun _ -> decision s = Protocol.Undecided);
                observe = ignore;
              }))
