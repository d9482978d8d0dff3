(* Canned state-machine specs for the repo's contracts.

   Identities are namespaced under "ac3-verify:". No identity is built
   when the module initialises: every spec builder creates its own, so
   a process that links the verifier but never probes a contract pays
   no key generation. Each [Keys.create] call has its own signature
   budget over material memoized per domain ([mss.material]), so the
   probes a model check runs on every call never exhaust a key, however
   many checks one process runs, and a repeated build is a memo hit.
   A shared [lazy] identity would not do: two pool domains forcing it
   at once (M004 under [ac3 check --jobs N]) raise
   [CamlinternalLazy.Undefined]. *)

module Keys = Ac3_crypto.Keys
module Htlc = Ac3_contract.Htlc
module Centralized_sc = Ac3_contract.Centralized_sc
module Witness_sc = Ac3_contract.Witness_sc
module Swap_template = Ac3_contract.Swap_template
module Ac2t = Ac3_contract.Ac2t
open Ac3_chain

(* The smallest MSS height whose budget covers what a builder signs: a
   height-1 key signs twice, the most any probe identity signs.
   [centralized]'s trent signs exactly two decisions (redeem and
   refund), [witness]'s two parties sign the multisignature once each,
   and the swap parties never sign. *)
let probe_height = 1

let identity name = Keys.create ~height:probe_height ("ac3-verify:" ^ name)

(* Classifier for Algorithm 1 template states. *)
let swap_cls state =
  match Swap_template.classify state with
  | Some Swap_template.Redeemed -> State_machine.Redeemed
  | Some Swap_template.Refunded -> State_machine.Refunded
  | Some Swap_template.Published -> State_machine.Published
  | Some Swap_template.Unpublished | None -> State_machine.Other

(* Settlement payee of a template state: redemption pays the recipient,
   refund pays the sender, nothing else may pay at all. *)
let swap_payee state cls =
  match (cls : State_machine.cls) with
  | State_machine.Redeemed ->
      Result.to_option (Result.map Keys.address_of_public (Swap_template.get_recipient_pk state))
  | State_machine.Refunded ->
      Result.to_option (Result.map Keys.address_of_public (Swap_template.get_sender_pk state))
  | State_machine.Published | State_machine.Other -> None

let probe ~label ~fn ~args ~caller ~time = { State_machine.label; fn; args; caller; time }

(* Every (fn, secret-variant) x (caller) x (time-region) combination. *)
let swap_probes ~sender ~recipient ~fns_with_args ~times =
  let stranger = identity "stranger" in
  List.concat_map
    (fun (fn, variant, args) ->
      List.concat_map
        (fun (who, caller) ->
          List.map
            (fun (region, time) ->
              probe
                ~label:(Printf.sprintf "%s/%s/%s/%s" fn variant who region)
                ~fn ~args ~caller ~time)
            times)
        [ ("sender", Keys.public sender); ("recipient", Keys.public recipient);
          ("stranger", Keys.public stranger) ])
    fns_with_args

let htlc ?(deposit = Amount.of_int 1000) ?(timelock = 100.0) ?(max_nodes = 256) () =
  let sender = identity "sender" and recipient = identity "recipient" in
  let secret = "ac3-verify-htlc-secret" in
  let fns_with_args =
    [
      ("redeem", "good", Htlc.redeem_args ~secret);
      ("redeem", "bad", Htlc.redeem_args ~secret:"wrong");
      ("refund", "plain", Htlc.refund_args);
    ]
  in
  let times = [ ("early", timelock /. 2.0); ("late", timelock +. 10.0) ] in
  {
    State_machine.code = (module Htlc.Code : Contract_iface.CODE);
    chain_id = "verify-chain";
    deployer = Keys.public sender;
    deposit;
    init_args =
      Htlc.args ~recipient_pk:(Keys.public recipient)
        ~hashlock:(Htlc.hashlock_of_secret secret) ~timelock;
    init_time = 0.0;
    probes = swap_probes ~sender ~recipient ~fns_with_args ~times;
    classify = swap_cls;
    payee_of = Some swap_payee;
    max_nodes;
  }

let centralized ?(deposit = Amount.of_int 1000) ?(max_nodes = 256) () =
  let sender = identity "sender" and recipient = identity "recipient" in
  let trent = identity "trent" in
  let ms_id = Ac3_crypto.Sha256.digest "ac3-verify-ms" in
  let signed decision = Keys.sign trent (Centralized_sc.decision_message ~ms_id decision) in
  let rd = Centralized_sc.secret_args (signed `Redeem) in
  let rf = Centralized_sc.secret_args (signed `Refund) in
  let fns_with_args =
    [
      ("redeem", "rd-sig", rd);
      ("redeem", "rf-sig", rf);
      ("redeem", "garbage", Value.Bytes "not-a-signature");
      ("refund", "rf-sig", rf);
      ("refund", "rd-sig", rd);
      ("refund", "garbage", Value.Bytes "not-a-signature");
    ]
  in
  let times = [ ("any", 10.0) ] in
  {
    State_machine.code = (module Centralized_sc.Code : Contract_iface.CODE);
    chain_id = "verify-chain";
    deployer = Keys.public sender;
    deposit;
    init_args =
      Centralized_sc.args ~recipient_pk:(Keys.public recipient) ~ms_id
        ~trent_pk:(Keys.public trent);
    init_time = 0.0;
    probes = swap_probes ~sender ~recipient ~fns_with_args ~times;
    classify = swap_cls;
    payee_of = Some swap_payee;
    max_nodes;
  }

let witness ?(max_nodes = 64) () =
  let a = identity "wa" and b = identity "wb" in
  let graph =
    Ac2t.create
      ~edges:
        [
          {
            Ac2t.from_pk = Keys.public a;
            to_pk = Keys.public b;
            amount = Amount.of_int 10;
            chain = "c1";
          };
          {
            Ac2t.from_pk = Keys.public b;
            to_pk = Keys.public a;
            amount = Amount.of_int 20;
            chain = "c2";
          };
        ]
      ~timestamp:1.0
  in
  let ms = Ac2t.multisign graph [ a; b ] in
  let checkpoint chain =
    (Block.genesis ~chain ~time:0.0 ~target:(Pow.target_of_bits 8) ()).Block.header
  in
  let scw_cls state =
    if Witness_sc.state_is state Witness_sc.status_redeem_authorized then State_machine.Redeemed
    else if Witness_sc.state_is state Witness_sc.status_refund_authorized then
      State_machine.Refunded
    else if Witness_sc.state_is state Witness_sc.status_published then State_machine.Published
    else State_machine.Other
  in
  {
    State_machine.code = (module Witness_sc.Code : Contract_iface.CODE);
    chain_id = "witness";
    deployer = Keys.public a;
    deposit = Amount.zero;
    init_args =
      Witness_sc.args ~graph ~ms
        ~checkpoints:[ ("c1", checkpoint "c1"); ("c2", checkpoint "c2") ]
        ~evidence_depth:2;
    init_time = 0.0;
    probes =
      [
        probe ~label:"authorize_refund/any" ~fn:"authorize_refund" ~args:Value.Unit
          ~caller:(Keys.public a) ~time:10.0;
        probe ~label:"authorize_redeem/no-evidence" ~fn:"authorize_redeem"
          ~args:(Value.List []) ~caller:(Keys.public a) ~time:10.0;
        probe ~label:"authorize_redeem/garbage" ~fn:"authorize_redeem"
          ~args:(Value.List [ Value.Bytes "junk"; Value.Bytes "junk" ])
          ~caller:(Keys.public b) ~time:10.0;
        probe ~label:"unknown-fn" ~fn:"frobnicate" ~args:Value.Unit ~caller:(Keys.public b)
          ~time:10.0;
      ];
    classify = scw_cls;
    (* SCw holds no asset: any payout at all is misrouted. *)
    payee_of = Some (fun _ _ -> None);
    max_nodes;
  }
