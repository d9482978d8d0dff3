(* Tests for the contract layer: AC2T graphs, the Algorithm 1 template via
   HTLC, the AC3TW contract, the witness contract (Algorithm 3), the
   permissionless swap contract (Algorithm 4), and cross-chain evidence
   (Sec 4.3). *)

module Keys = Ac3_crypto.Keys
module Sha256 = Ac3_crypto.Sha256
open Ac3_chain
open Ac3_contract

let alice = Keys.create "contract-test-alice"

let bob = Keys.create "contract-test-bob"

let carol = Keys.create "contract-test-carol"

let dave = Keys.create "contract-test-dave"

let coin n = Amount.of_int n

(* --- Ac2t graphs --------------------------------------------------------- *)

let edge ?(amount = coin 100) from_ to_ chain =
  { Ac2t.from_pk = Keys.public from_; to_pk = Keys.public to_; amount; chain }

let two_party () =
  Ac2t.create ~edges:[ edge alice bob "btc"; edge bob alice "eth" ] ~timestamp:1.0

let test_ac2t_roundtrip () =
  let g = two_party () in
  let g' = Ac2t.of_bytes (Ac2t.to_bytes g) in
  Alcotest.(check string) "stable encoding"
    (Ac3_crypto.Hex.encode (Ac2t.to_bytes g))
    (Ac3_crypto.Hex.encode (Ac2t.to_bytes g'))

let test_ac2t_participants () =
  let g = two_party () in
  Alcotest.(check int) "two participants" 2 (List.length (Ac2t.participants g));
  Alcotest.(check (list string)) "chains" [ "btc"; "eth" ] (Ac2t.chains g)

let test_ac2t_validation () =
  Alcotest.check_raises "no edges" (Invalid_argument "Ac2t.create: no edges") (fun () ->
      ignore (Ac2t.create ~edges:[] ~timestamp:0.0));
  Alcotest.check_raises "self edge" (Invalid_argument "Ac2t.create: self-edge") (fun () ->
      ignore (Ac2t.create ~edges:[ edge alice alice "btc" ] ~timestamp:0.0));
  Alcotest.check_raises "zero amount" (Invalid_argument "Ac2t.create: zero-amount edge")
    (fun () ->
      ignore (Ac2t.create ~edges:[ edge ~amount:Amount.zero alice bob "btc" ] ~timestamp:0.0));
  Alcotest.check_raises "duplicate edge" (Invalid_argument "Ac2t.create: duplicate edge")
    (fun () ->
      ignore (Ac2t.create ~edges:[ edge alice bob "btc"; edge alice bob "btc" ] ~timestamp:0.0));
  (* Same endpoints are fine as long as amount or chain differ: the two
     contracts have distinct canonical encodings. *)
  Alcotest.(check int) "parallel edges on distinct chains" 2
    (List.length (Ac2t.edges (Ac2t.create ~edges:[ edge alice bob "btc"; edge alice bob "eth" ] ~timestamp:0.0)));
  Alcotest.(check int) "parallel edges with distinct amounts" 2
    (List.length
       (Ac2t.edges
          (Ac2t.create ~edges:[ edge alice bob "btc"; edge ~amount:(coin 7) alice bob "btc" ] ~timestamp:0.0)))

let test_ac2t_multisig () =
  let g = two_party () in
  let ms = Ac2t.multisign g [ alice; bob ] in
  Alcotest.(check bool) "verifies" true (Ac2t.verify_multisig g ms);
  (* Signed by the wrong set. *)
  let ms_bad = Ac2t.multisign g [ alice; carol ] in
  Alcotest.(check bool) "wrong signers rejected" false (Ac2t.verify_multisig g ms_bad);
  (* Signature over a different graph. *)
  let g2 = Ac2t.create ~edges:[ edge alice bob "btc"; edge bob alice "eth" ] ~timestamp:2.0 in
  Alcotest.(check bool) "timestamp distinguishes graphs" false (Ac2t.verify_multisig g2 ms)

let test_ac2t_diameter () =
  Alcotest.(check int) "two-party diameter 2" 2 (Ac2t.diameter (two_party ()));
  let ring3 =
    Ac2t.create
      ~edges:[ edge alice bob "c1"; edge bob carol "c2"; edge carol alice "c3" ]
      ~timestamp:0.0
  in
  Alcotest.(check int) "3-ring diameter 3" 3 (Ac2t.diameter ring3);
  let path =
    Ac2t.create ~edges:[ edge alice bob "c1"; edge bob carol "c2" ] ~timestamp:0.0
  in
  Alcotest.(check int) "path diameter 2" 2 (Ac2t.diameter path)

let test_ac2t_classify () =
  Alcotest.(check bool) "two-party is simple swap" true
    (Ac2t.classify (two_party ()) = Ac2t.Simple_swap);
  let disconnected =
    Ac2t.create
      ~edges:[ edge alice bob "c1"; edge bob alice "c2"; edge carol dave "c3"; edge dave carol "c4" ]
      ~timestamp:0.0
  in
  Alcotest.(check bool) "disconnected" true (Ac2t.classify disconnected = Ac2t.Disconnected);
  Alcotest.(check bool) "disconnected not connected" false (Ac2t.is_connected disconnected);
  let fig7a =
    Ac2t.create
      ~edges:
        [
          edge alice bob "c1";
          edge bob carol "c2";
          edge carol alice "c3";
          edge bob alice "c1";
          edge carol bob "c2";
          edge alice carol "c3";
        ]
      ~timestamp:0.0
  in
  Alcotest.(check bool) "fig 7a cyclic" true (Ac2t.classify fig7a = Ac2t.Cyclic);
  (* Removing any vertex leaves a 2-cycle: not single-leader
     executable. *)
  List.iter
    (fun leader ->
      Alcotest.(check bool) "7a not single-leader executable" false
        (Ac2t.single_leader_executable fig7a leader))
    (Ac2t.participants fig7a);
  (* A two-party swap is executable with either leader. *)
  List.iter
    (fun leader ->
      Alcotest.(check bool) "swap executable" true
        (Ac2t.single_leader_executable (two_party ()) leader))
    (Ac2t.participants (two_party ()))

(* --- Single-chain contract harness ---------------------------------------- *)

let params premine =
  Params.make "c1" ~pow_bits:4 ~confirm_depth:2
    ~premine:(List.map (fun id -> (Keys.address id, coin 10_000_000)) premine)

let mk_store () = Store.create ~params:(params [ alice; bob; carol ]) ~registry:(Registry.standard ())

let mine_into ?(time_step = 1.0) store txs =
  let parent = Store.tip store in
  let block =
    Miner.block ~params:(Store.params store) ~parent
      ~time:(float_of_int (parent.Block.header.Block.height + 1) *. time_step)
      ~miner_addr:(Keys.address (Keys.create "contract-test-miner")) txs
  in
  match Store.add_block store block with
  | Store.Added _ -> Ok block
  | Store.Invalid e -> Error e
  | Store.Duplicate | Store.Orphaned -> Error "unexpected add result"

let expect_ok = function Ok v -> v | Error e -> Alcotest.fail e

let expect_error = function
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error (_ : string) -> ()

(* Deploy a contract funded by [who]'s first UTXO. *)
let deploy store who ~code_id ~args ~deposit =
  let ledger = Store.ledger store in
  let op, (o : Tx.output) = List.hd (Ledger.utxos_of ledger (Keys.address who)) in
  let p = Store.params store in
  let fee = p.Params.deploy_fee in
  let tx =
    Tx.make ~chain:p.Params.chain_id ~inputs:[ (op, who) ]
      ~outputs:[ { addr = Keys.address who; amount = Amount.(o.amount - fee - deposit) } ]
      ~payload:(Tx.Deploy { code_id; args; deposit })
      ~fee ~nonce:(Ac3_sim.Rng.int64 (Ac3_sim.Rng.create (Hashtbl.hash (code_id, Keys.label who)))) ()
  in
  match mine_into store [ tx ] with
  | Ok _ -> Ok (Tx.txid tx, Contract_iface.contract_id_of_deploy ~txid:(Tx.txid tx))
  | Error e -> Error e

let call ?(time_step = 1.0) store who ~contract_id ~fn ~args =
  let ledger = Store.ledger store in
  let op, (o : Tx.output) = List.hd (Ledger.utxos_of ledger (Keys.address who)) in
  let p = Store.params store in
  let fee = p.Params.call_fee in
  let tx =
    Tx.make ~chain:p.Params.chain_id ~inputs:[ (op, who) ]
      ~outputs:[ { addr = Keys.address who; amount = Amount.(o.amount - fee) } ]
      ~payload:(Tx.Call { contract_id; fn; args; deposit = Amount.zero })
      ~fee
      ~nonce:(Int64.of_int (Store.tip_height store + Hashtbl.hash fn))
      ()
  in
  Result.map (fun b -> (Tx.txid tx, b)) (mine_into ~time_step store [ tx ])

let contract_state store cid =
  match Ledger.contract (Store.ledger store) cid with
  | Some c -> c.Ledger.state
  | None -> Alcotest.fail "contract missing"

(* --- HTLC ------------------------------------------------------------------ *)

let test_htlc_redeem_path () =
  let store = mk_store () in
  let secret = "my little secret" in
  let args =
    Htlc.args ~recipient_pk:(Keys.public bob)
      ~hashlock:(Htlc.hashlock_of_secret secret) ~timelock:1000.0
  in
  let _txid, cid = expect_ok (deploy store alice ~code_id:Htlc.code_id ~args ~deposit:(coin 5000)) in
  Alcotest.(check bool) "published" true (Swap_template.is_published (contract_state store cid));
  (* Wrong secret rejected. *)
  expect_error (call store bob ~contract_id:cid ~fn:"redeem" ~args:(Htlc.redeem_args ~secret:"nope"));
  (* Right secret pays Bob. *)
  let before = Ledger.balance_of (Store.ledger store) (Keys.address bob) in
  ignore (expect_ok (call store bob ~contract_id:cid ~fn:"redeem" ~args:(Htlc.redeem_args ~secret)));
  Alcotest.(check bool) "redeemed" true (Swap_template.is_redeemed (contract_state store cid));
  let after = Ledger.balance_of (Store.ledger store) (Keys.address bob) in
  Alcotest.(check int64) "bob paid (minus call fee)"
    Amount.(before + coin 5000 - (Store.params store).Params.call_fee)
    after;
  (* Redeeming twice fails: state is RD, not P. *)
  expect_error (call store bob ~contract_id:cid ~fn:"redeem" ~args:(Htlc.redeem_args ~secret))

let test_htlc_refund_path () =
  let store = mk_store () in
  let secret = "s" in
  let args =
    Htlc.args ~recipient_pk:(Keys.public bob)
      ~hashlock:(Htlc.hashlock_of_secret secret) ~timelock:3.5
  in
  let _txid, cid = expect_ok (deploy store alice ~code_id:Htlc.code_id ~args ~deposit:(coin 777)) in
  (* Too early: block time 2 < 3.5. *)
  expect_error (call store alice ~contract_id:cid ~fn:"refund" ~args:Htlc.refund_args);
  (* Mine until past the timelock (block time = height). *)
  ignore (expect_ok (mine_into store []));
  ignore (expect_ok (mine_into store []));
  ignore (expect_ok (call store alice ~contract_id:cid ~fn:"refund" ~args:Htlc.refund_args));
  Alcotest.(check bool) "refunded" true (Swap_template.is_refunded (contract_state store cid))

let test_htlc_refund_blocks_redeem () =
  (* After a refund, the recipient cannot redeem even with the right
     secret: RD and RF are mutually exclusive states. *)
  let store = mk_store () in
  let secret = "s2" in
  let args =
    Htlc.args ~recipient_pk:(Keys.public bob)
      ~hashlock:(Htlc.hashlock_of_secret secret) ~timelock:2.0
  in
  let _txid, cid = expect_ok (deploy store alice ~code_id:Htlc.code_id ~args ~deposit:(coin 10)) in
  ignore (expect_ok (mine_into store []));
  ignore (expect_ok (call store alice ~contract_id:cid ~fn:"refund" ~args:Htlc.refund_args));
  expect_error (call store bob ~contract_id:cid ~fn:"redeem" ~args:(Htlc.redeem_args ~secret))

let test_htlc_requires_locked_asset () =
  let store = mk_store () in
  let args =
    Htlc.args ~recipient_pk:(Keys.public bob) ~hashlock:(Htlc.hashlock_of_secret "x")
      ~timelock:10.0
  in
  expect_error (deploy store alice ~code_id:Htlc.code_id ~args ~deposit:Amount.zero)

(* --- Centralized (AC3TW) contract ------------------------------------------ *)

let trent = Keys.create "contract-test-trent"

let test_centralized_sc () =
  let store = mk_store () in
  let ms_id = Sha256.digest "some ms(D)" in
  let args = Centralized_sc.args ~recipient_pk:(Keys.public bob) ~ms_id ~trent_pk:(Keys.public trent) in
  let _txid, cid =
    expect_ok (deploy store alice ~code_id:Centralized_sc.code_id ~args ~deposit:(coin 4000))
  in
  (* A random signature is rejected. *)
  let bogus = Keys.sign (Keys.create "contract-test-mallory") "anything" in
  expect_error
    (call store bob ~contract_id:cid ~fn:"redeem" ~args:(Centralized_sc.secret_args bogus));
  (* Trent's refund signature does not redeem. *)
  let refund_sig = Keys.sign trent (Centralized_sc.decision_message ~ms_id `Refund) in
  expect_error
    (call store bob ~contract_id:cid ~fn:"redeem" ~args:(Centralized_sc.secret_args refund_sig));
  (* Trent's redeem signature does. *)
  let redeem_sig = Keys.sign trent (Centralized_sc.decision_message ~ms_id `Redeem) in
  ignore
    (expect_ok
       (call store bob ~contract_id:cid ~fn:"redeem" ~args:(Centralized_sc.secret_args redeem_sig)));
  Alcotest.(check bool) "redeemed" true (Swap_template.is_redeemed (contract_state store cid))

let test_centralized_sc_refund () =
  let store = mk_store () in
  let ms_id = Sha256.digest "another ms(D)" in
  let args = Centralized_sc.args ~recipient_pk:(Keys.public bob) ~ms_id ~trent_pk:(Keys.public trent) in
  let _txid, cid =
    expect_ok (deploy store alice ~code_id:Centralized_sc.code_id ~args ~deposit:(coin 4000))
  in
  let refund_sig = Keys.sign trent (Centralized_sc.decision_message ~ms_id `Refund) in
  let before = Ledger.balance_of (Store.ledger store) (Keys.address alice) in
  ignore
    (expect_ok
       (call store alice ~contract_id:cid ~fn:"refund" ~args:(Centralized_sc.secret_args refund_sig)));
  Alcotest.(check bool) "refunded" true (Swap_template.is_refunded (contract_state store cid));
  Alcotest.(check int64) "alice repaid"
    Amount.(before + coin 4000 - (Store.params store).Params.call_fee)
    (Ledger.balance_of (Store.ledger store) (Keys.address alice))

(* --- Evidence (Sec 4.3) ------------------------------------------------------ *)

let test_evidence_roundtrip_and_verify () =
  let store = mk_store () in
  (* Mine a few blocks, then a transfer, then bury it. *)
  ignore (expect_ok (mine_into store []));
  let checkpoint = (Option.get (Store.block_at_height store 1)).Block.header in
  let ledger = Store.ledger store in
  let op, (o : Tx.output) = List.hd (Ledger.utxos_of ledger (Keys.address alice)) in
  let p = Store.params store in
  let tx =
    Tx.make ~chain:"c1" ~inputs:[ (op, alice) ]
      ~outputs:
        [
          { addr = Keys.address bob; amount = coin 123 };
          { addr = Keys.address alice; amount = Amount.(o.amount - coin 123 - p.Params.transfer_fee) };
        ]
      ~fee:p.Params.transfer_fee ~nonce:5L ()
  in
  ignore (expect_ok (mine_into store [ tx ]));
  for _ = 1 to 3 do
    ignore (expect_ok (mine_into store []))
  done;
  let ev = expect_ok (Evidence.build ~store ~checkpoint ~txid:(Tx.txid tx)) in
  (* Codec roundtrip. *)
  let ev = expect_ok (Evidence.of_value (Evidence.to_value ev)) in
  (* Verifies at depth 3 (three blocks on top). *)
  let tx' = expect_ok (Evidence.verify ~checkpoint ~depth:3 ev) in
  Alcotest.(check string) "extracted tx" (Ac3_crypto.Hex.encode (Tx.txid tx))
    (Ac3_crypto.Hex.encode (Tx.txid tx'));
  (* Fails at depth 4. *)
  (match Evidence.verify ~checkpoint ~depth:4 ev with
  | Error e -> Alcotest.(check bool) "burial message" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "insufficient burial accepted")

let test_evidence_rejects_tampering () =
  let store = mk_store () in
  ignore (expect_ok (mine_into store []));
  let checkpoint = (Option.get (Store.block_at_height store 1)).Block.header in
  let ledger = Store.ledger store in
  let op, (o : Tx.output) = List.hd (Ledger.utxos_of ledger (Keys.address alice)) in
  let p = Store.params store in
  let tx =
    Tx.make ~chain:"c1" ~inputs:[ (op, alice) ]
      ~outputs:[ { addr = Keys.address alice; amount = Amount.(o.amount - p.Params.transfer_fee) } ]
      ~fee:p.Params.transfer_fee ~nonce:6L ()
  in
  ignore (expect_ok (mine_into store [ tx ]));
  for _ = 1 to 2 do
    ignore (expect_ok (mine_into store []))
  done;
  let ev = expect_ok (Evidence.build ~store ~checkpoint ~txid:(Tx.txid tx)) in
  (* Drop a header: linkage breaks. *)
  (match Evidence.verify ~checkpoint ~depth:1 { ev with Evidence.headers = List.tl ev.Evidence.headers } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "broken linkage accepted");
  (* Swap in a different transaction: Merkle proof fails. *)
  let other =
    Tx.make ~chain:"c1"
      ~inputs:[ (Outpoint.create ~txid:(Sha256.digest "zz") ~index:0, alice) ]
      ~outputs:[] ~fee:(coin 100) ~nonce:7L ()
  in
  (match Evidence.verify ~checkpoint ~depth:1 { ev with Evidence.tx_bytes = Tx.to_bytes other } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "substituted tx accepted");
  (* Wrong checkpoint chain. *)
  (match Evidence.verify ~checkpoint:{ checkpoint with Block.chain = "c2" } ~depth:1 ev with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong chain accepted");
  (* Tamper with the tip header, which no later header links to, so only
     its own checks can catch it. *)
  let with_tip tip =
    let rest = List.rev (List.tl (List.rev ev.Evidence.headers)) in
    { ev with Evidence.headers = rest @ [ tip ] }
  in
  let tip = List.nth ev.Evidence.headers (List.length ev.Evidence.headers - 1) in
  let rejected what expected ev =
    match Evidence.verify ~checkpoint ~depth:1 ev with
    | Error e -> Alcotest.(check string) what expected e
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  (* Re-nonced: the first nonce above the mined one whose hash misses
     the target. *)
  let renonced =
    let rec search n tries =
      let h = { tip with Block.nonce = n } in
      if not (Block.header_pow_ok h) then h
      else if tries = 0 then Alcotest.fail "no failing nonce found"
      else search (Int64.succ n) (tries - 1)
    in
    search (Int64.succ tip.Block.nonce) 1_000
  in
  rejected "re-nonced header" "header fails proof of work" (with_tip renonced);
  (* The easiest target, which the tip's hash meets: PoW at its own
     target proves nothing when the chain's target is harder. *)
  let easy = { tip with Block.target = String.make 32 '\xff' } in
  Alcotest.(check bool) "easy target met" true (Block.header_pow_ok easy);
  rejected "wrong-target header" "header at wrong target" (with_tip easy)

let test_evidence_strawmen () =
  (* Full replication and SPV validation strategies agree with the
     in-contract strategy. *)
  let store = mk_store () in
  let ledger = Store.ledger store in
  let op, (o : Tx.output) = List.hd (Ledger.utxos_of ledger (Keys.address alice)) in
  let p = Store.params store in
  let tx =
    Tx.make ~chain:"c1" ~inputs:[ (op, alice) ]
      ~outputs:[ { addr = Keys.address alice; amount = Amount.(o.amount - p.Params.transfer_fee) } ]
      ~fee:p.Params.transfer_fee ~nonce:8L ()
  in
  let block = expect_ok (mine_into store [ tx ]) in
  for _ = 1 to 3 do
    ignore (expect_ok (mine_into store []))
  done;
  let txid = Tx.txid tx in
  (* Strawman 1: full replica. *)
  ignore (expect_ok (Evidence.verify_by_full_replication ~replica:store ~txid ~depth:3));
  (* Strawman 2: SPV light client. *)
  let spv = Spv.create ~genesis_header:(Store.genesis store).Block.header in
  (match Spv.add_headers spv (Store.headers_from store ~from_:1) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let index = match Store.find_tx store txid with Some (_, i) -> i | None -> Alcotest.fail "?" in
  let proof = Block.tx_proof block index in
  ignore
    (expect_ok
       (Evidence.verify_by_light_client ~spv ~header_hash:(Block.hash block) ~txid ~proof ~depth:3))

(* --- Witness contract (Algorithm 3) + Permissionless contract (Algorithm 4) --- *)

(* Two-chain fixture: asset chain c1 and witness chain w, driven by
   direct mining (no network), exercising the full AC3WN contract
   machinery deterministically. *)
type fixture = {
  asset : Store.t;
  witness : Store.t;
  graph : Ac2t.t;
  scw : string;
  edge_contract : string;
  edge_deploy_txid : string;
}

let witness_params =
  Params.make "w" ~pow_bits:4 ~confirm_depth:2
    ~premine:[ (Keys.address alice, coin 10_000_000); (Keys.address bob, coin 10_000_000) ]

let make_fixture ?(evidence_depth = 1) ?(decision_depth = 1) () =
  let registry = Registry.standard () in
  let asset = Store.create ~params:(params [ alice; bob ]) ~registry in
  let witness = Store.create ~params:witness_params ~registry in
  (* One-edge graph: alice pays bob 5000 on c1.
     (A one-edge AC2T keeps the fixture small; multi-edge behaviour is
     covered by the protocol tests in test_core.) *)
  let graph = Ac2t.create ~edges:[ edge ~amount:(coin 5000) alice bob "c1" ] ~timestamp:9.0 in
  let ms = Ac2t.multisign graph [ alice; bob ] in
  (* Register SCw. *)
  let checkpoint_c1 = (Store.genesis asset).Block.header in
  let scw_args =
    Witness_sc.args ~graph ~ms ~checkpoints:[ ("c1", checkpoint_c1) ] ~evidence_depth
  in
  let deploy_on store who ~code_id ~args ~deposit =
    let ledger = Store.ledger store in
    let op, (o : Tx.output) = List.hd (Ledger.utxos_of ledger (Keys.address who)) in
    let p = Store.params store in
    let fee = p.Params.deploy_fee in
    let tx =
      Tx.make ~chain:p.Params.chain_id ~inputs:[ (op, who) ]
        ~outputs:[ { addr = Keys.address who; amount = Amount.(o.amount - fee - deposit) } ]
        ~payload:(Tx.Deploy { code_id; args; deposit })
        ~fee ~nonce:99L ()
    in
    (tx, mine_into store [ tx ])
  in
  let scw_tx, r = deploy_on witness alice ~code_id:Witness_sc.code_id ~args:scw_args ~deposit:Amount.zero in
  ignore (expect_ok r);
  let scw = Contract_iface.contract_id_of_deploy ~txid:(Tx.txid scw_tx) in
  (* Deploy the edge contract on c1, bound to SCw. *)
  let witness_checkpoint = (Store.genesis witness).Block.header in
  let edge_args =
    Permissionless_sc.args ~recipient_pk:(Keys.public bob) ~witness_chain:"w" ~scw
      ~depth:decision_depth ~witness_checkpoint
  in
  let edge_tx, r =
    deploy_on asset alice ~code_id:Permissionless_sc.code_id ~args:edge_args ~deposit:(coin 5000)
  in
  ignore (expect_ok r);
  let edge_contract = Contract_iface.contract_id_of_deploy ~txid:(Tx.txid edge_tx) in
  (* Bury the deployment for evidence. *)
  for _ = 1 to evidence_depth do
    ignore (expect_ok (mine_into asset []))
  done;
  { asset; witness; graph; scw; edge_contract; edge_deploy_txid = Tx.txid edge_tx }

let scw_state fx = contract_state fx.witness fx.scw

let authorize_redeem_args fx =
  let state = scw_state fx in
  let checkpoint = expect_ok (Witness_sc.checkpoint_for state "c1") in
  let ev = expect_ok (Evidence.build ~store:fx.asset ~checkpoint ~txid:fx.edge_deploy_txid) in
  Value.List [ Evidence.to_value ev ]

let test_witness_sc_registration_checks () =
  let registry = Registry.standard () in
  let witness = Store.create ~params:witness_params ~registry in
  let asset = Store.create ~params:(params [ alice; bob ]) ~registry in
  let graph = Ac2t.create ~edges:[ edge ~amount:(coin 10) alice bob "c1" ] ~timestamp:1.0 in
  let bad_ms = Ac2t.multisign graph [ alice ] in
  (* Missing bob's signature. *)
  let args =
    Witness_sc.args ~graph ~ms:bad_ms
      ~checkpoints:[ ("c1", (Store.genesis asset).Block.header) ]
      ~evidence_depth:1
  in
  expect_error (deploy witness alice ~code_id:Witness_sc.code_id ~args ~deposit:Amount.zero);
  (* Missing checkpoint for the asset chain. *)
  let ms = Ac2t.multisign graph [ alice; bob ] in
  let args = Witness_sc.args ~graph ~ms ~checkpoints:[] ~evidence_depth:1 in
  expect_error (deploy witness alice ~code_id:Witness_sc.code_id ~args ~deposit:Amount.zero)

let test_witness_sc_authorize_redeem () =
  let fx = make_fixture () in
  Alcotest.(check bool) "starts in P" true
    (Witness_sc.state_is (scw_state fx) Witness_sc.status_published);
  ignore
    (expect_ok
       (call fx.witness bob ~contract_id:fx.scw ~fn:"authorize_redeem"
          ~args:(authorize_redeem_args fx)));
  Alcotest.(check bool) "now RDauth" true
    (Witness_sc.state_is (scw_state fx) Witness_sc.status_redeem_authorized);
  (* No further transitions: refund after redeem is rejected. *)
  expect_error (call fx.witness bob ~contract_id:fx.scw ~fn:"authorize_refund" ~args:Value.Unit);
  (* And authorize_redeem is not repeatable. *)
  expect_error
    (call fx.witness alice ~contract_id:fx.scw ~fn:"authorize_redeem"
       ~args:(authorize_redeem_args fx))

let test_witness_sc_authorize_refund_exclusive () =
  let fx = make_fixture () in
  ignore (expect_ok (call fx.witness alice ~contract_id:fx.scw ~fn:"authorize_refund" ~args:Value.Unit));
  Alcotest.(check bool) "now RFauth" true
    (Witness_sc.state_is (scw_state fx) Witness_sc.status_refund_authorized);
  (* Redeem can no longer be authorized: conflicting events never both
     occur (Lemma 5.1). *)
  expect_error
    (call fx.witness bob ~contract_id:fx.scw ~fn:"authorize_redeem"
       ~args:(authorize_redeem_args fx))

let test_witness_sc_rejects_bad_evidence () =
  let fx = make_fixture () in
  (* Evidence for a wrong amount: rebuild the fixture's evidence but lie
     about the transaction — easiest is to pass an empty list and a
     truncated list. *)
  expect_error
    (call fx.witness bob ~contract_id:fx.scw ~fn:"authorize_redeem" ~args:(Value.List []));
  expect_error
    (call fx.witness bob ~contract_id:fx.scw ~fn:"authorize_redeem" ~args:Value.Unit)

let test_witness_sc_rejects_wrong_contract_binding () =
  (* Deploy an edge contract bound to a DIFFERENT SCw id; authorize must
     fail VerifyContracts. *)
  let registry = Registry.standard () in
  let asset = Store.create ~params:(params [ alice; bob ]) ~registry in
  let witness = Store.create ~params:witness_params ~registry in
  let graph = Ac2t.create ~edges:[ edge ~amount:(coin 5000) alice bob "c1" ] ~timestamp:9.0 in
  let ms = Ac2t.multisign graph [ alice; bob ] in
  let scw_args =
    Witness_sc.args ~graph ~ms
      ~checkpoints:[ ("c1", (Store.genesis asset).Block.header) ]
      ~evidence_depth:1
  in
  let _txid, scw =
    expect_ok (deploy witness alice ~code_id:Witness_sc.code_id ~args:scw_args ~deposit:Amount.zero)
  in
  let edge_args =
    Permissionless_sc.args ~recipient_pk:(Keys.public bob) ~witness_chain:"w"
      ~scw:(Sha256.digest "a different scw") ~depth:1
      ~witness_checkpoint:(Store.genesis witness).Block.header
  in
  let edge_txid, _cid =
    expect_ok (deploy asset alice ~code_id:Permissionless_sc.code_id ~args:edge_args ~deposit:(coin 5000))
  in
  ignore (expect_ok (mine_into asset []));
  let checkpoint = (Store.genesis asset).Block.header in
  let ev = expect_ok (Evidence.build ~store:asset ~checkpoint ~txid:edge_txid) in
  expect_error
    (call witness bob ~contract_id:scw ~fn:"authorize_redeem"
       ~args:(Value.List [ Evidence.to_value ev ]))

let test_permissionless_sc_redeem_with_decision_evidence () =
  let fx = make_fixture () in
  (* Authorize on the witness chain and bury the decision. *)
  let auth_txid, _ =
    expect_ok
      (call fx.witness bob ~contract_id:fx.scw ~fn:"authorize_redeem"
         ~args:(authorize_redeem_args fx))
  in
  ignore (expect_ok (mine_into fx.witness []));
  (* Build decision evidence from the witness chain against the
     checkpoint stored in the edge contract (its genesis here). *)
  let checkpoint = (Store.genesis fx.witness).Block.header in
  let ev = expect_ok (Evidence.build ~store:fx.witness ~checkpoint ~txid:auth_txid) in
  let before = Ledger.balance_of (Store.ledger fx.asset) (Keys.address bob) in
  ignore
    (expect_ok
       (call fx.asset bob ~contract_id:fx.edge_contract ~fn:"redeem" ~args:(Evidence.to_value ev)));
  Alcotest.(check bool) "edge redeemed" true
    (Swap_template.is_redeemed (contract_state fx.asset fx.edge_contract));
  Alcotest.(check int64) "bob received the asset"
    Amount.(before + coin 5000 - (Store.params fx.asset).Params.call_fee)
    (Ledger.balance_of (Store.ledger fx.asset) (Keys.address bob))

let test_permissionless_sc_rejects_cross_decisions () =
  let fx = make_fixture () in
  (* Authorize REFUND, bury it, then try to REDEEM with that evidence. *)
  let auth_txid, _ =
    expect_ok (call fx.witness alice ~contract_id:fx.scw ~fn:"authorize_refund" ~args:Value.Unit)
  in
  ignore (expect_ok (mine_into fx.witness []));
  let checkpoint = (Store.genesis fx.witness).Block.header in
  let ev = expect_ok (Evidence.build ~store:fx.witness ~checkpoint ~txid:auth_txid) in
  expect_error
    (call fx.asset bob ~contract_id:fx.edge_contract ~fn:"redeem" ~args:(Evidence.to_value ev));
  (* But the refund path accepts it. *)
  ignore
    (expect_ok
       (call fx.asset alice ~contract_id:fx.edge_contract ~fn:"refund" ~args:(Evidence.to_value ev)));
  Alcotest.(check bool) "edge refunded" true
    (Swap_template.is_refunded (contract_state fx.asset fx.edge_contract))

let test_permissionless_sc_depth_enforced () =
  (* decision_depth 3 but only 1 block on top: redeem must fail until
     buried deeper. *)
  let fx = make_fixture ~decision_depth:3 () in
  let auth_txid, _ =
    expect_ok
      (call fx.witness bob ~contract_id:fx.scw ~fn:"authorize_redeem"
         ~args:(authorize_redeem_args fx))
  in
  ignore (expect_ok (mine_into fx.witness []));
  let checkpoint = (Store.genesis fx.witness).Block.header in
  let ev = expect_ok (Evidence.build ~store:fx.witness ~checkpoint ~txid:auth_txid) in
  expect_error
    (call fx.asset bob ~contract_id:fx.edge_contract ~fn:"redeem" ~args:(Evidence.to_value ev));
  (* Bury deeper and retry with fresh evidence. *)
  ignore (expect_ok (mine_into fx.witness []));
  ignore (expect_ok (mine_into fx.witness []));
  let ev = expect_ok (Evidence.build ~store:fx.witness ~checkpoint ~txid:auth_txid) in
  ignore
    (expect_ok
       (call fx.asset bob ~contract_id:fx.edge_contract ~fn:"redeem" ~args:(Evidence.to_value ev)))

(* --- The shared settlement-status classifier ------------------------------ *)

(* Settle a fixture's edge contract through a buried witness decision:
   [`Redeem] authorizes redemption and redeems, [`Refund] authorizes the
   refund and refunds. *)
let settle_edge fx decision =
  let caller, auth_fn, auth_args, edge_fn =
    match decision with
    | `Redeem -> (bob, "authorize_redeem", authorize_redeem_args fx, "redeem")
    | `Refund -> (alice, "authorize_refund", Value.Unit, "refund")
  in
  let auth_txid, _ =
    expect_ok (call fx.witness caller ~contract_id:fx.scw ~fn:auth_fn ~args:auth_args)
  in
  ignore (expect_ok (mine_into fx.witness []));
  let checkpoint = (Store.genesis fx.witness).Block.header in
  let ev = expect_ok (Evidence.build ~store:fx.witness ~checkpoint ~txid:auth_txid) in
  ignore
    (expect_ok
       (call fx.asset caller ~contract_id:fx.edge_contract ~fn:edge_fn
          ~args:(Evidence.to_value ev)));
  contract_state fx.asset fx.edge_contract

let test_status_classifier () =
  let module Outcome = Ac3_core.Outcome in
  let module SM = Ac3_verify.State_machine in
  let swap_cls = (Ac3_verify.Probes.htlc ()).SM.classify in
  let cls_name v = Fmt.str "%a" SM.pp_cls (swap_cls v) in
  let htlc_deploy ~timelock =
    let args =
      Htlc.args ~recipient_pk:(Keys.public bob) ~hashlock:(Htlc.hashlock_of_secret "cls")
        ~timelock
    in
    let store = mk_store () in
    let _txid, cid = expect_ok (deploy store alice ~code_id:Htlc.code_id ~args ~deposit:(coin 50)) in
    (store, cid)
  in
  let htlc_published, htlc_redeemed =
    let store, cid = htlc_deploy ~timelock:1000.0 in
    let published = contract_state store cid in
    ignore
      (expect_ok
         (call store bob ~contract_id:cid ~fn:"redeem" ~args:(Htlc.redeem_args ~secret:"cls")));
    (published, contract_state store cid)
  in
  let htlc_refunded =
    let store, cid = htlc_deploy ~timelock:2.0 in
    ignore (expect_ok (mine_into store []));
    ignore (expect_ok (call store alice ~contract_id:cid ~fn:"refund" ~args:Htlc.refund_args));
    contract_state store cid
  in
  let fx = make_fixture () in
  let psc_published = contract_state fx.asset fx.edge_contract in
  let psc_redeemed = settle_edge fx `Redeem in
  let psc_refunded = settle_edge (make_fixture ()) `Refund in
  List.iter
    (fun (label, state, (expected : Swap_template.status), cls) ->
      Alcotest.(check bool) (label ^ ": classify") true
        (Swap_template.classify state = Some expected);
      Alcotest.(check bool) (label ^ ": is_published agrees")
        (expected = Published) (Swap_template.is_published state);
      Alcotest.(check bool) (label ^ ": is_redeemed agrees")
        (expected = Redeemed) (Swap_template.is_redeemed state);
      Alcotest.(check bool) (label ^ ": is_refunded agrees")
        (expected = Refunded) (Swap_template.is_refunded state);
      Alcotest.(check bool) (label ^ ": outcome status") true
        (Outcome.status_of_state state = expected);
      Alcotest.(check string) (label ^ ": probe class") cls (cls_name state))
    [
      ("htlc P", htlc_published, Published, "P");
      ("htlc RD", htlc_redeemed, Redeemed, "RD");
      ("htlc RF", htlc_refunded, Refunded, "RF");
      ("permissionless P", psc_published, Published, "P");
      ("permissionless RD", psc_redeemed, Redeemed, "RD");
      ("permissionless RF", psc_refunded, Refunded, "RF");
    ];
  (* Values that are not a swap template's state: the witness contract's
     own state and a bare unit. *)
  List.iter
    (fun (label, v) ->
      Alcotest.(check bool) (label ^ ": classify is None") true (Swap_template.classify v = None);
      Alcotest.(check string) (label ^ ": outcome reads missing") "missing"
        (Fmt.str "%a" Outcome.pp_status (Outcome.status_of_state v));
      Alcotest.(check string) (label ^ ": probe class") "other" (cls_name v))
    [ ("SCw state", scw_state fx); ("unit", Value.Unit) ]

let () =
  Alcotest.run "contract"
    [
      ( "ac2t",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_ac2t_roundtrip;
          Alcotest.test_case "participants and chains" `Quick test_ac2t_participants;
          Alcotest.test_case "validation" `Quick test_ac2t_validation;
          Alcotest.test_case "multisignature" `Quick test_ac2t_multisig;
          Alcotest.test_case "diameter" `Quick test_ac2t_diameter;
          Alcotest.test_case "classification (Fig 7)" `Quick test_ac2t_classify;
        ] );
      ( "htlc",
        [
          Alcotest.test_case "redeem path" `Quick test_htlc_redeem_path;
          Alcotest.test_case "refund path (timelock)" `Quick test_htlc_refund_path;
          Alcotest.test_case "refund blocks redeem" `Quick test_htlc_refund_blocks_redeem;
          Alcotest.test_case "requires locked asset" `Quick test_htlc_requires_locked_asset;
        ] );
      ( "centralized",
        [
          Alcotest.test_case "redeem with Trent's signature" `Quick test_centralized_sc;
          Alcotest.test_case "refund with Trent's signature" `Quick test_centralized_sc_refund;
        ] );
      ( "evidence",
        [
          Alcotest.test_case "roundtrip and verify" `Quick test_evidence_roundtrip_and_verify;
          Alcotest.test_case "rejects tampering" `Quick test_evidence_rejects_tampering;
          Alcotest.test_case "strawman strategies agree" `Quick test_evidence_strawmen;
        ] );
      ( "witness_sc",
        [
          Alcotest.test_case "registration checks" `Quick test_witness_sc_registration_checks;
          Alcotest.test_case "authorize redeem" `Quick test_witness_sc_authorize_redeem;
          Alcotest.test_case "refund excludes redeem" `Quick test_witness_sc_authorize_refund_exclusive;
          Alcotest.test_case "rejects bad evidence" `Quick test_witness_sc_rejects_bad_evidence;
          Alcotest.test_case "rejects wrong SCw binding" `Quick test_witness_sc_rejects_wrong_contract_binding;
        ] );
      ( "permissionless_sc",
        [
          Alcotest.test_case "redeem with decision evidence" `Quick
            test_permissionless_sc_redeem_with_decision_evidence;
          Alcotest.test_case "rejects cross decisions" `Quick
            test_permissionless_sc_rejects_cross_decisions;
          Alcotest.test_case "depth enforced" `Quick test_permissionless_sc_depth_enforced;
        ] );
      ( "settlement status",
        [
          Alcotest.test_case "classifier agrees with is_* (htlc, permissionless)" `Quick
            test_status_classifier;
        ] );
    ]
