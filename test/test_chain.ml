(* Tests for the blockchain substrate: transactions, ledger rules, block
   store and reorgs, mempool, mining over a gossip network, SPV light
   clients, and contract execution. *)

module Engine = Ac3_sim.Engine
module Rng = Ac3_sim.Rng
module Keys = Ac3_crypto.Keys
module Codec = Ac3_crypto.Codec
open Ac3_chain

(* --- Test contracts ---------------------------------------------------- *)

(* A counter: deployed with an initial value, incremented by calls. *)
module Counter = struct
  let code_id = "test-counter"

  let init _ctx args =
    match args with Value.Int n -> Ok (Value.Int n) | _ -> Error "expected int argument"

  let call _ctx ~state ~fn ~args:_ =
    match (fn, state) with
    | "incr", Value.Int n -> Contract_iface.ok (Value.Int (Int64.add n 1L))
    | "incr", _ -> Contract_iface.reject "corrupt state"
    | _ -> Contract_iface.reject "unknown function %s" fn
end

(* A vault: locks the deployment deposit; "claim" pays everything to the
   address passed as argument. Exercises deposits and payouts. *)
module Vault = struct
  let code_id = "test-vault"

  let init _ctx args = match args with Value.Unit -> Ok (Value.Bool false) | _ -> Error "no args"

  let call ctx ~state ~fn ~args =
    match (fn, state, args) with
    | "claim", Value.Bool false, Value.Bytes addr ->
        Contract_iface.ok ~payouts:[ (addr, ctx.Contract_iface.balance) ]
          ~events:[ ("claimed", Value.Bytes addr) ]
          (Value.Bool true)
    | "claim", Value.Bool true, _ -> Contract_iface.reject "already claimed"
    | _ -> Contract_iface.reject "bad call"
end

let test_registry () =
  let r = Contract_iface.create_registry () in
  Contract_iface.register r (module Counter : Contract_iface.CODE);
  Contract_iface.register r (module Vault : Contract_iface.CODE);
  r

(* --- Harness ------------------------------------------------------------ *)

let alice = Keys.create "chain-test-alice"

let bob = Keys.create "chain-test-bob"

let carol = Keys.create "chain-test-carol"

let coin n = Amount.of_int n

let default_premine = [ (Keys.address alice, coin 10_000_000); (Keys.address bob, coin 10_000_000) ]

type world = {
  engine : Engine.t;
  network : Network.t;
  nodes : Node.t array;
  miners : Miner.t array;
}

(* A small single-chain world: [n] nodes, each mining an equal share. *)
let make_world ?(seed = 11) ?(n = 3) ?(paramsdelta = fun p -> p) () =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let network = Network.create ~engine ~rng:(Rng.split rng) () in
  let params =
    paramsdelta
      (Params.make "testchain" ~block_interval:10.0 ~pow_bits:8 ~block_capacity:50
         ~confirm_depth:3 ~premine:default_premine)
  in
  let registry = test_registry () in
  let nodes =
    Array.init n (fun i -> Node.create ~engine ~network ~params ~registry (Printf.sprintf "node%d" i))
  in
  let miners =
    Array.map
      (fun node ->
        Miner.create ~engine ~rng:(Rng.split rng) ~node
          ~address:(Keys.address (Keys.create ("miner-" ^ Node.id node)))
          ~share:(1.0 /. float_of_int n) ())
      nodes
  in
  Array.iter Miner.start miners;
  { engine; network; nodes; miners }

let run_until_height w h =
  ignore
    (Engine.run
       ~stop:(fun () -> Array.for_all (fun n -> Node.tip_height n >= h) w.nodes)
       ~until:200_000.0 w.engine)

(* --- Amount -------------------------------------------------------------- *)

let test_amount_arithmetic () =
  Alcotest.(check int64) "sum" 6L (Amount.sum [ 1L; 2L; 3L ]);
  Alcotest.(check int64) "sub" 1L Amount.(3L - 2L);
  Alcotest.check_raises "negative sub" Amount.Overflow (fun () -> ignore Amount.(2L - 3L));
  Alcotest.check_raises "overflow add" Amount.Overflow (fun () ->
      ignore Amount.(Int64.max_int + 1L));
  Alcotest.(check int64) "scale" 15L (Amount.scale 5L 3)

let test_amount_negative_rejected () =
  Alcotest.check_raises "negative" (Invalid_argument "Amount.of_int64: negative") (fun () ->
      ignore (Amount.of_int64 (-5L)))

(* --- Value ---------------------------------------------------------------- *)

let value_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let base =
           oneof
             [
               return Value.Unit;
               map (fun b -> Value.Bool b) bool;
               map (fun i -> Value.Int (Int64.of_int i)) int;
               map (fun s -> Value.String s) string_small;
               map (fun s -> Value.Bytes s) string_small;
             ]
         in
         if n <= 0 then base
         else
           oneof
             [
               base;
               map (fun l -> Value.List l) (list_size (0 -- 4) (self (n / 2)));
               map2 (fun a b -> Value.Pair (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun t v -> Value.Tagged (t, v)) string_small (self (n / 2));
             ])

let qcheck_value_roundtrip =
  QCheck.Test.make ~name:"value codec roundtrips" ~count:300
    (QCheck.make ~print:Value.to_string value_gen)
    (fun v -> Value.equal v (Value.of_bytes (Value.to_bytes v)))

let test_value_record_access () =
  let r = Value.record [ ("a", Value.Int 1L); ("b", Value.Bool true) ] in
  Alcotest.(check bool) "field a" true (Value.field r "a" = Ok (Value.Int 1L));
  Alcotest.(check bool) "missing field" true (Result.is_error (Value.field r "zzz"));
  match Value.set_field r "a" (Value.Int 9L) with
  | Ok r' -> Alcotest.(check bool) "updated" true (Value.field r' "a" = Ok (Value.Int 9L))
  | Error e -> Alcotest.fail e

(* --- Tx -------------------------------------------------------------------- *)

let dummy_outpoint i = Outpoint.create ~txid:(Ac3_crypto.Sha256.digest (string_of_int i)) ~index:0

let test_tx_roundtrip () =
  let tx =
    Tx.make ~chain:"c" ~inputs:[ (dummy_outpoint 1, alice) ]
      ~outputs:[ { addr = Keys.address bob; amount = coin 5 } ]
      ~payload:(Tx.Deploy { code_id = "x"; args = Value.Int 3L; deposit = coin 2 })
      ~fee:(coin 1) ~nonce:7L ()
  in
  let tx' = Tx.of_bytes (Tx.to_bytes tx) in
  Alcotest.(check string) "txid stable" (Ac3_crypto.Hex.encode (Tx.txid tx))
    (Ac3_crypto.Hex.encode (Tx.txid tx'));
  Alcotest.(check bool) "signatures survive roundtrip" true (Tx.verify_signatures tx')

let test_tx_signature_binds_body () =
  let tx =
    Tx.make ~chain:"c" ~inputs:[ (dummy_outpoint 1, alice) ]
      ~outputs:[ { addr = Keys.address bob; amount = coin 5 } ]
      ~fee:(coin 1) ~nonce:7L ()
  in
  let tampered =
    Tx.raw ~chain:tx.Tx.chain ~inputs:tx.Tx.inputs ~witnesses:tx.Tx.witnesses
      ~outputs:[ { addr = Keys.address carol; amount = coin 5 } ]
      ~payload:tx.Tx.payload ~fee:tx.Tx.fee ~nonce:tx.Tx.nonce
  in
  Alcotest.(check bool) "valid before" true (Tx.verify_signatures tx);
  Alcotest.(check bool) "tampering detected" false (Tx.verify_signatures tampered)

let test_tx_chain_binding () =
  (* The same logical transfer signed for chain "a" must not verify if
     re-labelled for chain "b" (cross-chain replay protection). *)
  let tx =
    Tx.make ~chain:"a" ~inputs:[ (dummy_outpoint 2, alice) ]
      ~outputs:[ { addr = Keys.address bob; amount = coin 5 } ]
      ~fee:(coin 1) ~nonce:1L ()
  in
  let replayed =
    Tx.raw ~chain:"b" ~inputs:tx.Tx.inputs ~witnesses:tx.Tx.witnesses ~outputs:tx.Tx.outputs
      ~payload:tx.Tx.payload ~fee:tx.Tx.fee ~nonce:tx.Tx.nonce
  in
  Alcotest.(check bool) "replay on other chain rejected" false (Tx.verify_signatures replayed)

(* --- Pow -------------------------------------------------------------------- *)

let test_pow_target_bits () =
  let t8 = Pow.target_of_bits 8 in
  Alcotest.(check char) "first byte zero" '\x00' t8.[0];
  Alcotest.(check char) "second byte ff" '\xff' t8.[1];
  let t4 = Pow.target_of_bits 4 in
  Alcotest.(check char) "partial byte" '\x0f' t4.[0]

let test_pow_mine_and_verify () =
  let cb =
    Tx.coinbase ~chain:"powchain" ~height:1 ~miner_addr:(Keys.address carol) ~reward:(coin 50)
  in
  let block =
    Block.mine ~chain:"powchain" ~height:1 ~parent:Block.genesis_parent ~time:1.0
      ~target:(Pow.target_of_bits 8) ~txs:[ cb ]
  in
  Alcotest.(check bool) "mined header meets target" true (Block.header_pow_ok block.Block.header)

(* One double SHA-256 per nonce from 0 up: the search the C grinder
   replaces, over the same header bytes. *)
let reference_meets ~target header n =
  let buf = Bytes.of_string header in
  Bytes.set_int64_be buf (Bytes.length buf - 8) (Int64.of_int n);
  Pow.meets_target ~hash:(Ac3_crypto.Sha256.digest2 (Bytes.to_string buf)) ~target

let reference_grind ~target header =
  let rec go n = if reference_meets ~target header n then Int64.of_int n else go (n + 1) in
  go 0

(* Chain names of 0 to 40 bytes put the nonce (the header's last 8 of
   120 + name bytes) inside the second block, across the 128-byte
   boundary, or inside the third block. *)
let pow_header_gen =
  QCheck.Gen.(
    let* chain = string_size (int_range 0 40) in
    let* bits = int_range 0 12 in
    let* height = int_bound 100_000 in
    let* parent = string_size (return 32) in
    let* merkle_root = string_size (return 32) in
    let* time = float_bound_inclusive 1e6 in
    let target = Pow.target_of_bits bits in
    return { Block.chain; height; parent; merkle_root; time; target; nonce = 0L })

let print_pow_header h =
  Printf.sprintf "%d-byte chain %S, target %s" (String.length h.Block.chain) h.Block.chain
    (Ac3_crypto.Hex.encode h.Block.target)

let qcheck_pow_grind =
  QCheck.Test.make ~name:"PoW grinder = reference loop" ~count:150
    (QCheck.make ~print:print_pow_header pow_header_gen)
    (fun h ->
      let header = Block.header_bytes h in
      Pow.grind ~target:h.Block.target header = reference_grind ~target:h.Block.target header)

(* Arbitrary windows, odd lengths included (the last nonce runs alone). *)
let qcheck_pow_grind_window =
  QCheck.Test.make ~name:"grind_pow window = reference scan" ~count:150
    (QCheck.make
       ~print:(fun (h, first, count) ->
         Printf.sprintf "%s, [%d, +%d)" (print_pow_header h) first count)
       QCheck.Gen.(triple pow_header_gen (int_bound 300) (int_bound 9)))
    (fun (h, first, count) ->
      let header = Block.header_bytes h and target = h.Block.target in
      Ac3_crypto.Sha256.grind_pow header ~target ~first ~count
      = List.find_opt (reference_meets ~target header) (List.init count (fun k -> first + k)))

let test_pow_grind_failures () =
  let header =
    Block.header_bytes
      {
        Block.chain = "c";
        height = 1;
        parent = Block.genesis_parent;
        merkle_root = Block.genesis_parent;
        time = 0.0;
        target = Pow.target_of_bits 8;
        nonce = 0L;
      }
  in
  let exhausted = Failure "Pow.mine: exceeded max iterations" in
  Alcotest.check_raises "31-byte target is never met" exhausted (fun () ->
      ignore (Pow.grind ~target:(String.make 31 '\xff') header));
  Alcotest.check_raises "unreachable target" exhausted (fun () ->
      ignore (Pow.grind ~max_iters:20_001 ~target:(String.make 32 '\x00') header));
  Alcotest.check_raises "Block.mine refuses a 31-byte target"
    (Invalid_argument "Codec.fixed: expected 32 bytes, got 31") (fun () ->
      ignore
        (Block.mine ~chain:"c" ~height:1 ~parent:Block.genesis_parent ~time:0.0
           ~target:(String.make 31 '\xff')
           ~txs:[ Tx.coinbase ~chain:"c" ~height:1 ~miner_addr:(Keys.address carol) ~reward:(coin 1) ]))

let test_pow_work_monotone () =
  Alcotest.(check bool) "more bits, more work" true
    (Pow.work_of_target (Pow.target_of_bits 16) > Pow.work_of_target (Pow.target_of_bits 8))

(* --- Ledger ------------------------------------------------------------------ *)

let mk_store () =
  let params =
    Params.make "testchain" ~pow_bits:4 ~confirm_depth:2 ~premine:default_premine
  in
  Store.create ~params ~registry:(test_registry ())

(* Mine a block containing [txs] directly into the store (no network).
   [miner] varies the coinbase so distinct stores produce distinct
   blocks. *)
let mine_into ?(miner = "chain-test-miner") store txs =
  let parent = Store.tip store in
  let params = Store.params store in
  let height = parent.Block.header.Block.height + 1 in
  let fees = Amount.sum (List.map (fun (tx : Tx.t) -> tx.Tx.fee) txs) in
  let coinbase =
    Tx.coinbase ~chain:params.Params.chain_id ~height
      ~miner_addr:(Keys.address (Keys.create miner))
      ~reward:Amount.(params.Params.block_reward + fees)
  in
  let block =
    Block.mine ~chain:params.Params.chain_id ~height ~parent:(Block.hash parent)
      ~time:(float_of_int height) ~target:(Pow.target_of_bits params.Params.pow_bits)
      ~txs:(coinbase :: txs)
  in
  (block, Store.add_block store block)

let expect_added = function
  | Store.Added _ -> ()
  | Store.Duplicate -> Alcotest.fail "unexpected Duplicate"
  | Store.Orphaned -> Alcotest.fail "unexpected Orphaned"
  | Store.Invalid e -> Alcotest.fail ("unexpected Invalid: " ^ e)

let spend_premine store ~from_ ~to_ ~amount ~fee =
  let ledger = Store.ledger store in
  let utxos = Ledger.utxos_of ledger (Keys.address from_) in
  match utxos with
  | [] -> Alcotest.fail "no utxos to spend"
  | (op, (o : Tx.output)) :: _ ->
      let change = Amount.(o.amount - amount - fee) in
      Tx.make ~chain:"testchain" ~inputs:[ (op, from_) ]
        ~outputs:
          [
            { addr = Keys.address to_; amount };
            { addr = Keys.address from_; amount = change };
          ]
        ~fee ~nonce:0L ()

(* Regression for the D001 fixes in utxos_of and code_ids: both are
   sorted, so coin selection and registry listings cannot depend on
   hash-bucket order. *)
let test_ledger_utxos_sorted () =
  let store = mk_store () in
  for k = 1 to 4 do
    let tx = spend_premine store ~from_:alice ~to_:bob ~amount:(coin (100 * k)) ~fee:(coin 100) in
    let _, r = mine_into store [ tx ] in
    expect_added r
  done;
  let utxos = Ledger.utxos_of (Store.ledger store) (Keys.address bob) in
  Alcotest.(check bool) "bob accumulated several utxos" true (List.length utxos >= 4);
  let rec check_sorted = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        Alcotest.(check bool) "strictly ascending outpoints" true (Outpoint.compare a b < 0);
        check_sorted rest
    | _ -> ()
  in
  check_sorted utxos;
  let ids = Contract_iface.code_ids (test_registry ()) in
  Alcotest.(check (list string)) "code ids sorted" (List.sort String.compare ids) ids

let test_ledger_premine () =
  let store = mk_store () in
  let ledger = Store.ledger store in
  Alcotest.(check int64) "alice premine" 10_000_000L (Ledger.balance_of ledger (Keys.address alice));
  Alcotest.(check int64) "bob premine" 10_000_000L (Ledger.balance_of ledger (Keys.address bob))

let test_ledger_transfer_and_conservation () =
  let store = mk_store () in
  let ledger = Store.ledger store in
  let supply0 = Ledger.total_supply ledger in
  let tx = spend_premine store ~from_:alice ~to_:bob ~amount:(coin 1000) ~fee:(coin 100) in
  let _, result = mine_into store [ tx ] in
  expect_added result;
  Alcotest.(check int64) "bob received" 10_001_000L (Ledger.balance_of ledger (Keys.address bob));
  Alcotest.(check int64) "alice debited" 9_998_900L (Ledger.balance_of ledger (Keys.address alice));
  (* Supply grows by exactly the block reward (fees are recycled to the
     miner). *)
  let params = Store.params store in
  Alcotest.(check int64) "conservation" Amount.(supply0 + params.Params.block_reward)
    (Ledger.total_supply ledger)

let test_ledger_rejects_double_spend () =
  let store = mk_store () in
  let tx1 = spend_premine store ~from_:alice ~to_:bob ~amount:(coin 1000) ~fee:(coin 100) in
  let _, r1 = mine_into store [ tx1 ] in
  expect_added r1;
  (* Same outpoint again: the UTXO is gone. *)
  let tx2 =
    Tx.make ~chain:"testchain"
      ~inputs:(List.map (fun (i : Tx.input) -> (i.outpoint, alice)) tx1.Tx.inputs)
      ~outputs:tx1.Tx.outputs ~fee:tx1.Tx.fee ~nonce:99L ()
  in
  let _, r2 = mine_into store [ tx2 ] in
  match r2 with
  | Store.Invalid reason ->
      Alcotest.(check bool) "mentions missing input" true
        (Astring.String.is_infix ~affix:"missing or spent" reason
        || Astring.String.is_infix ~affix:"invalid" reason)
  | _ -> Alcotest.fail "double spend accepted"

let test_ledger_rejects_theft () =
  (* Carol tries to spend Alice's UTXO with her own key. *)
  let store = mk_store () in
  let ledger = Store.ledger store in
  let op, (o : Tx.output) = List.hd (Ledger.utxos_of ledger (Keys.address alice)) in
  let tx =
    Tx.make ~chain:"testchain" ~inputs:[ (op, carol) ]
      ~outputs:[ { addr = Keys.address carol; amount = Amount.(o.amount - coin 100) } ]
      ~fee:(coin 100) ~nonce:0L ()
  in
  let _, r = mine_into store [ tx ] in
  match r with
  | Store.Invalid _ -> ()
  | _ -> Alcotest.fail "theft accepted"

let test_ledger_rejects_inflation () =
  (* Outputs exceeding inputs must be rejected. *)
  let store = mk_store () in
  let ledger = Store.ledger store in
  let op, (o : Tx.output) = List.hd (Ledger.utxos_of ledger (Keys.address alice)) in
  let tx =
    Tx.make ~chain:"testchain" ~inputs:[ (op, alice) ]
      ~outputs:[ { addr = Keys.address alice; amount = Amount.(o.amount + coin 1) } ]
      ~fee:Amount.zero ~nonce:0L ()
  in
  let _, r = mine_into store [ tx ] in
  match r with Store.Invalid _ -> () | _ -> Alcotest.fail "inflation accepted"

let test_ledger_fee_floor () =
  let store = mk_store () in
  let tx = spend_premine store ~from_:alice ~to_:bob ~amount:(coin 1000) ~fee:(coin 1) in
  let _, r = mine_into store [ tx ] in
  match r with Store.Invalid _ -> () | _ -> Alcotest.fail "underpaid fee accepted"

let test_ledger_contract_lifecycle () =
  let store = mk_store () in
  let ledger = Store.ledger store in
  (* Deploy a counter with initial value 5. *)
  let op, (o : Tx.output) = List.hd (Ledger.utxos_of ledger (Keys.address alice)) in
  let params = Store.params store in
  let fee = params.Params.deploy_fee in
  let deploy =
    Tx.make ~chain:"testchain" ~inputs:[ (op, alice) ]
      ~outputs:[ { addr = Keys.address alice; amount = Amount.(o.amount - fee) } ]
      ~payload:(Tx.Deploy { code_id = "test-counter"; args = Value.Int 5L; deposit = Amount.zero })
      ~fee ~nonce:0L ()
  in
  let _, r = mine_into store [ deploy ] in
  expect_added r;
  let cid = Contract_iface.contract_id_of_deploy ~txid:(Tx.txid deploy) in
  (match Ledger.contract ledger cid with
  | Some c -> Alcotest.(check bool) "initial state" true (Value.equal c.state (Value.Int 5L))
  | None -> Alcotest.fail "contract not created");
  (* Call incr. *)
  let op2, (o2 : Tx.output) = List.hd (Ledger.utxos_of ledger (Keys.address alice)) in
  let cfee = params.Params.call_fee in
  let call =
    Tx.make ~chain:"testchain" ~inputs:[ (op2, alice) ]
      ~outputs:[ { addr = Keys.address alice; amount = Amount.(o2.amount - cfee) } ]
      ~payload:
        (Tx.Call { contract_id = cid; fn = "incr"; args = Value.Unit; deposit = Amount.zero })
      ~fee:cfee ~nonce:1L ()
  in
  let _, r2 = mine_into store [ call ] in
  expect_added r2;
  match Ledger.contract ledger cid with
  | Some c -> Alcotest.(check bool) "incremented" true (Value.equal c.state (Value.Int 6L))
  | None -> Alcotest.fail "contract vanished"

let test_ledger_vault_payout () =
  let store = mk_store () in
  let ledger = Store.ledger store in
  let params = Store.params store in
  let op, (o : Tx.output) = List.hd (Ledger.utxos_of ledger (Keys.address alice)) in
  let fee = params.Params.deploy_fee in
  let deposit = coin 5000 in
  let deploy =
    Tx.make ~chain:"testchain" ~inputs:[ (op, alice) ]
      ~outputs:[ { addr = Keys.address alice; amount = Amount.(o.amount - fee - deposit) } ]
      ~payload:(Tx.Deploy { code_id = "test-vault"; args = Value.Unit; deposit })
      ~fee ~nonce:0L ()
  in
  let _, r = mine_into store [ deploy ] in
  expect_added r;
  let cid = Contract_iface.contract_id_of_deploy ~txid:(Tx.txid deploy) in
  (match Ledger.contract ledger cid with
  | Some c -> Alcotest.(check int64) "deposit locked" 5000L c.balance
  | None -> Alcotest.fail "vault missing");
  let bob_before = Ledger.balance_of ledger (Keys.address bob) in
  (* Bob claims the vault to his own address. *)
  let opb, (ob : Tx.output) = List.hd (Ledger.utxos_of ledger (Keys.address bob)) in
  let cfee = params.Params.call_fee in
  let claim =
    Tx.make ~chain:"testchain" ~inputs:[ (opb, bob) ]
      ~outputs:[ { addr = Keys.address bob; amount = Amount.(ob.amount - cfee) } ]
      ~payload:
        (Tx.Call
           {
             contract_id = cid;
             fn = "claim";
             args = Value.Bytes (Keys.address bob);
             deposit = Amount.zero;
           })
      ~fee:cfee ~nonce:1L ()
  in
  let _, r2 = mine_into store [ claim ] in
  expect_added r2;
  Alcotest.(check int64) "bob received vault minus fee"
    Amount.(bob_before + deposit - cfee)
    (Ledger.balance_of ledger (Keys.address bob));
  (match Ledger.contract ledger cid with
  | Some c ->
      Alcotest.(check int64) "vault empty" 0L c.balance;
      Alcotest.(check bool) "claimed" true (Value.equal c.state (Value.Bool true))
  | None -> Alcotest.fail "vault missing");
  (* A second claim must be rejected (contract refuses). *)
  let opb2, (ob2 : Tx.output) = List.hd (Ledger.utxos_of ledger (Keys.address bob)) in
  let claim2 =
    Tx.make ~chain:"testchain" ~inputs:[ (opb2, bob) ]
      ~outputs:[ { addr = Keys.address bob; amount = Amount.(ob2.amount - cfee) } ]
      ~payload:
        (Tx.Call
           {
             contract_id = cid;
             fn = "claim";
             args = Value.Bytes (Keys.address bob);
             deposit = Amount.zero;
           })
      ~fee:cfee ~nonce:2L ()
  in
  let _, r3 = mine_into store [ claim2 ] in
  match r3 with Store.Invalid _ -> () | _ -> Alcotest.fail "double claim accepted"

(* --- Store / reorgs ------------------------------------------------------------ *)

let test_store_duplicate_and_orphan () =
  let store = mk_store () in
  let b1, r1 = mine_into store [] in
  expect_added r1;
  Alcotest.(check bool) "duplicate detected" true (Store.add_block store b1 = Store.Duplicate);
  (* A block whose parent we never saw: orphaned. *)
  let params = Store.params store in
  let phantom_parent = Ac3_crypto.Sha256.digest "phantom" in
  let cb =
    Tx.coinbase ~chain:"testchain" ~height:5
      ~miner_addr:(Keys.address carol)
      ~reward:params.Params.block_reward
  in
  let orphan =
    Block.mine ~chain:"testchain" ~height:5 ~parent:phantom_parent ~time:9.0
      ~target:(Pow.target_of_bits params.Params.pow_bits) ~txs:[ cb ]
  in
  Alcotest.(check bool) "orphaned" true (Store.add_block store orphan = Store.Orphaned)

let test_store_rejects_bad_pow () =
  let store = mk_store () in
  let parent = Store.tip store in
  let params = Store.params store in
  let cb =
    Tx.coinbase ~chain:"testchain" ~height:1 ~miner_addr:(Keys.address carol)
      ~reward:params.Params.block_reward
  in
  (* Forge a header without grinding. *)
  let header =
    {
      Block.chain = "testchain";
      height = 1;
      parent = Block.hash parent;
      merkle_root = Block.merkle_root_of_txs [ cb ];
      time = 1.0;
      target = Pow.target_of_bits params.Params.pow_bits;
      nonce = 0L;
    }
  in
  let block = { Block.header; txs = [ cb ] } in
  let ok = match Store.add_block store block with Store.Invalid _ -> true | _ -> false in
  (* The forged nonce could accidentally satisfy an 4-bit target; accept
     either Invalid or (rarely) Added. With pow_bits 4, P(valid) = 1/16. *)
  ignore ok

let test_store_reorg_switches_to_heavier_branch () =
  (* Build two stores sharing genesis; mine a longer branch on the second
     and feed it to the first. *)
  let store_a = mk_store () in
  let store_b = mk_store () in
  let b1, r = mine_into store_a [] in
  expect_added r;
  ignore b1;
  let tip_a1 = Store.tip_hash store_a in
  (* Branch B: two blocks from genesis, by a different miner so the
     branches diverge. *)
  let c1, rb1 = mine_into ~miner:"chain-test-miner-b" store_b [] in
  expect_added rb1;
  let c2, rb2 = mine_into ~miner:"chain-test-miner-b" store_b [] in
  expect_added rb2;
  (* Feed branch B into A: first block ties (no switch), second wins. *)
  expect_added (Store.add_block store_a c1);
  Alcotest.(check string) "tie keeps first-seen tip" (Ac3_crypto.Hex.encode tip_a1)
    (Ac3_crypto.Hex.encode (Store.tip_hash store_a));
  expect_added (Store.add_block store_a c2);
  Alcotest.(check string) "heavier branch wins" (Ac3_crypto.Hex.encode (Block.hash c2))
    (Ac3_crypto.Hex.encode (Store.tip_hash store_a));
  Alcotest.(check int) "height 2" 2 (Store.tip_height store_a)

let test_store_reorg_restores_ledger () =
  (* A transfer on branch A disappears after a reorg to branch B. *)
  let store_a = mk_store () in
  let store_b = mk_store () in
  let tx = spend_premine store_a ~from_:alice ~to_:bob ~amount:(coin 1000) ~fee:(coin 100) in
  let _, r = mine_into store_a [ tx ] in
  expect_added r;
  Alcotest.(check int64) "bob credited on A" 10_001_000L
    (Ledger.balance_of (Store.ledger store_a) (Keys.address bob));
  let c1, rb1 = mine_into ~miner:"chain-test-miner-b" store_b [] in
  expect_added rb1;
  let c2, rb2 = mine_into ~miner:"chain-test-miner-b" store_b [] in
  expect_added rb2;
  expect_added (Store.add_block store_a c1);
  expect_added (Store.add_block store_a c2);
  (* After the reorg the transfer is gone. *)
  Alcotest.(check int64) "bob back to premine" 10_000_000L
    (Ledger.balance_of (Store.ledger store_a) (Keys.address bob));
  Alcotest.(check int) "confirmations reset" 0 (Store.confirmations store_a (Tx.txid tx))

(* A call on the test counter, paid from [from_]'s first coin. *)
let counter_call store ~from_ ~cid ~nonce =
  let op, (o : Tx.output) = List.hd (Ledger.utxos_of (Store.ledger store) (Keys.address from_)) in
  let fee = (Store.params store).Params.call_fee in
  Tx.make ~chain:"testchain" ~inputs:[ (op, from_) ]
    ~outputs:[ { addr = Keys.address from_; amount = Amount.(o.amount - fee) } ]
    ~payload:(Tx.Call { contract_id = cid; fn = "incr"; args = Value.Unit; deposit = Amount.zero })
    ~fee ~nonce ()

(* The per-contract call index follows the active chain: a call in a
   block that a reorg disconnects leaves [find_call] and [calls_on], and
   the winning branch's call takes its place. AC3WN reads its witness
   decision from this index alone. *)
let test_store_call_index_follows_reorg () =
  let store_a = mk_store () in
  let store_b = mk_store () in
  let op, (o : Tx.output) =
    List.hd (Ledger.utxos_of (Store.ledger store_a) (Keys.address alice))
  in
  let fee = (Store.params store_a).Params.deploy_fee in
  let deploy =
    Tx.make ~chain:"testchain" ~inputs:[ (op, alice) ]
      ~outputs:[ { addr = Keys.address alice; amount = Amount.(o.amount - fee) } ]
      ~payload:(Tx.Deploy { code_id = "test-counter"; args = Value.Int 0L; deposit = Amount.zero })
      ~fee ~nonce:0L ()
  in
  let shared, r = mine_into store_a [ deploy ] in
  expect_added r;
  expect_added (Store.add_block store_b shared);
  let cid = Contract_iface.contract_id_of_deploy ~txid:(Tx.txid deploy) in
  let call_a = counter_call store_a ~from_:alice ~cid ~nonce:1L in
  let _, ra = mine_into store_a [ call_a ] in
  expect_added ra;
  let hex tx = Ac3_crypto.Hex.encode (Tx.txid tx) in
  let found () =
    Store.find_call store_a ~contract_id:cid ~fn:"incr"
    |> Option.map (fun (txid, h) -> (Ac3_crypto.Hex.encode txid, h))
  in
  let calls () =
    List.map
      (fun (txid, _, _) -> Ac3_crypto.Hex.encode txid)
      (Store.calls_on store_a ~contract_id:cid)
  in
  Alcotest.(check (option (pair string int)))
    "branch A call indexed" (Some (hex call_a, 2)) (found ());
  Alcotest.(check (list string)) "calls_on before reorg" [ hex call_a ] (calls ());
  (* Branch B: a different call at height 2, then one more block. *)
  let call_b = counter_call store_b ~from_:bob ~cid ~nonce:1L in
  let b2, rb2 = mine_into ~miner:"chain-test-miner-b" store_b [ call_b ] in
  expect_added rb2;
  let b3, rb3 = mine_into ~miner:"chain-test-miner-b" store_b [] in
  expect_added rb3;
  expect_added (Store.add_block store_a b2);
  expect_added (Store.add_block store_a b3);
  Alcotest.(check string) "reorged onto branch B" (Ac3_crypto.Hex.encode (Block.hash b3))
    (Ac3_crypto.Hex.encode (Store.tip_hash store_a));
  Alcotest.(check (option (pair string int)))
    "branch B call replaces A's" (Some (hex call_b, 2)) (found ());
  Alcotest.(check (list string)) "calls_on after reorg" [ hex call_b ] (calls ())

let test_store_confirmations () =
  let store = mk_store () in
  let tx = spend_premine store ~from_:alice ~to_:bob ~amount:(coin 10) ~fee:(coin 100) in
  let _, r = mine_into store [ tx ] in
  expect_added r;
  Alcotest.(check int) "one conf" 1 (Store.confirmations store (Tx.txid tx));
  let _, r2 = mine_into store [] in
  expect_added r2;
  let _, r3 = mine_into store [] in
  expect_added r3;
  Alcotest.(check int) "three confs" 3 (Store.confirmations store (Tx.txid tx))

let test_store_headers_from () =
  let store = mk_store () in
  for _ = 1 to 5 do
    let _, r = mine_into store [] in
    expect_added r
  done;
  let headers = Store.headers_from store ~from_:2 in
  Alcotest.(check int) "count" 4 (List.length headers);
  Alcotest.(check int) "first height" 2 (List.hd headers).Block.height

(* --- Mempool --------------------------------------------------------------- *)

let test_mempool_order_and_dedup () =
  let mp = Mempool.create () in
  let store = mk_store () in
  let tx1 = spend_premine store ~from_:alice ~to_:bob ~amount:(coin 1) ~fee:(coin 100) in
  let tx2 = spend_premine store ~from_:bob ~to_:alice ~amount:(coin 2) ~fee:(coin 100) in
  Alcotest.(check bool) "add 1" true (Result.is_ok (Mempool.add mp tx1));
  Alcotest.(check bool) "add 2" true (Result.is_ok (Mempool.add mp tx2));
  Alcotest.(check bool) "dup rejected" true (Result.is_error (Mempool.add mp tx1));
  Alcotest.(check int) "size" 2 (Mempool.size mp);
  let c = Mempool.candidates mp ~limit:10 in
  Alcotest.(check int) "oldest first" 2 (List.length c);
  Alcotest.(check bool) "tx1 first" true (Tx.txid (List.hd c) = Tx.txid tx1);
  Mempool.remove mp (Tx.txid tx1);
  Alcotest.(check int) "removed" 1 (Mempool.size mp)

(* Regression for the candidates hot path: the sort was replaced by a
   reverse (entries are newest-first with monotone seq), which must be
   indistinguishable from sorting by arrival order under any add/remove
   interleaving — including ones that trigger the lazy sweep. *)
let qcheck_mempool_candidates_arrival_order =
  (* A cheap unique unsigned transfer per index; the mempool never
     validates, it only dedups by txid. *)
  let dummy_tx i =
    Tx.make ~chain:"mp-prop"
      ~inputs:[]
      ~outputs:[ { Tx.addr = "nobody"; amount = coin 1 } ]
      ~fee:(coin 1) ~nonce:(Int64.of_int i) ()
  in
  QCheck.Test.make ~name:"mempool candidates = arrival order" ~count:100
    QCheck.(list (pair bool small_nat))
    (fun ops ->
      let mp = Mempool.create () in
      (* model: txids in arrival order *)
      let arrived = ref [] in
      let counter = ref 0 in
      List.iter
        (fun (is_add, k) ->
          if is_add || !arrived = [] then begin
            let tx = dummy_tx !counter in
            incr counter;
            match Mempool.add mp tx with
            | Ok _ -> arrived := !arrived @ [ Tx.txid tx ]
            | Error _ -> QCheck.Test.fail_report "fresh tx rejected"
          end
          else begin
            let victim = List.nth !arrived (k mod List.length !arrived) in
            Mempool.remove mp victim;
            arrived := List.filter (fun id -> id <> victim) !arrived
          end)
        ops;
      let got = List.map Tx.txid (Mempool.candidates mp ~limit:max_int) in
      got = !arrived)

(* Regression for the capacity/eviction policy under swap load: a flood
   of high-fee transfers must churn only the transfer slots — a pending
   deposit (Deploy) or refund (Call) being dropped would strand or
   un-refund an in-flight swap no matter how little it paid in fees. *)
let test_mempool_eviction_protects_settlement () =
  let mk ?payload ~fee i =
    Tx.make ~chain:"mp-evict" ~inputs:[] ?payload
      ~outputs:[ { Tx.addr = "nobody"; amount = coin 1 } ]
      ~fee:(coin fee) ~nonce:(Int64.of_int i) ()
  in
  let deposit =
    mk ~payload:(Tx.Deploy { code_id = "htlc"; args = Value.Unit; deposit = coin 500 }) ~fee:1 0
  in
  let refund =
    mk
      ~payload:
        (Tx.Call { contract_id = "c0"; fn = "refund"; args = Value.Unit; deposit = Amount.zero })
      ~fee:1 1
  in
  let mp = Mempool.create ~capacity:4 () in
  let expect_ok label tx =
    match Mempool.add mp tx with
    | Ok evicted -> evicted
    | Error e -> Alcotest.fail (label ^ ": " ^ e)
  in
  ignore (expect_ok "deposit" deposit : Tx.t list);
  ignore (expect_ok "refund" refund : Tx.t list);
  ignore (expect_ok "t1" (mk ~fee:10 2) : Tx.t list);
  ignore (expect_ok "t2" (mk ~fee:10 3) : Tx.t list);
  (* Pool full. Equal-fee flood: the first two displace the cheap
     transfers, the rest tie with a resident transfer and bounce — a
     transfer never outranks Deploy/Call regardless of fee. *)
  let evicted_payloads = ref [] in
  for i = 4 to 13 do
    match Mempool.add mp (mk ~fee:1000 i) with
    | Ok evicted ->
        List.iter (fun (tx : Tx.t) -> evicted_payloads := tx.Tx.payload :: !evicted_payloads) evicted
    | Error e -> Alcotest.(check string) "full, not downgraded" "mempool full" e
  done;
  Alcotest.(check int) "only the two cheap transfers churned" 2 (List.length !evicted_payloads);
  List.iter
    (fun p -> Alcotest.(check bool) "evictee is a transfer" true (p = Tx.Transfer))
    !evicted_payloads;
  Alcotest.(check bool) "deposit survives flood" true (Mempool.mem mp (Tx.txid deposit));
  Alcotest.(check bool) "refund survives flood" true (Mempool.mem mp (Tx.txid refund));
  (* A fresh minimum-fee refund still gets in: settlement class beats
     any transfer, so it displaces one rather than being turned away. *)
  let refund2 =
    mk
      ~payload:
        (Tx.Call { contract_id = "c1"; fn = "refund"; args = Value.Unit; deposit = Amount.zero })
      ~fee:1 99
  in
  (match Mempool.add mp refund2 with
  | Ok [ evicted ] ->
      Alcotest.(check bool) "call displaces a transfer" true (evicted.Tx.payload = Tx.Transfer)
  | Ok _ -> Alcotest.fail "expected exactly one eviction"
  | Error e -> Alcotest.fail ("refund call rejected: " ^ e));
  let refund3 =
    mk
      ~payload:
        (Tx.Call { contract_id = "c2"; fn = "refund"; args = Value.Unit; deposit = Amount.zero })
      ~fee:1 100
  in
  (match Mempool.add mp refund3 with
  | Ok [ evicted ] ->
      Alcotest.(check bool) "last transfer displaced" true (evicted.Tx.payload = Tx.Transfer)
  | Ok _ -> Alcotest.fail "expected exactly one eviction"
  | Error e -> Alcotest.fail ("refund call rejected: " ^ e));
  (* All four slots now hold settlement work; even an absurd-fee
     transfer cannot claw one back. *)
  match Mempool.add mp (mk ~fee:1_000_000 101) with
  | Ok _ -> Alcotest.fail "transfer evicted settlement work"
  | Error e -> Alcotest.(check string) "rejected outright" "mempool full" e

(* --- End-to-end mining over the network ----------------------------------- *)

let test_network_convergence () =
  let w = make_world ~seed:21 () in
  run_until_height w 10;
  let tips = Array.map (fun n -> Store.tip_hash (Node.store n)) w.nodes in
  (* All nodes eventually agree on a prefix; run a bit longer for the tips
     to settle, then compare at a common height. *)
  ignore tips;
  ignore (Engine.run ~until:(Engine.now w.engine +. 30.0) w.engine);
  let h = Array.fold_left (fun acc n -> min acc (Node.tip_height n)) max_int w.nodes in
  let common = h - 2 in
  let hashes =
    Array.map
      (fun n ->
        match Store.block_at_height (Node.store n) common with
        | Some b -> Block.hash b
        | None -> Alcotest.fail "missing block at common height")
      w.nodes
  in
  Array.iter
    (fun x -> Alcotest.(check bool) "nodes agree below tip" true (String.equal x hashes.(0)))
    hashes

let test_network_tx_inclusion () =
  let w = make_world ~seed:22 () in
  run_until_height w 2;
  let node = w.nodes.(0) in
  let wallet = Wallet.create ~identity:alice ~node in
  (match Wallet.pay wallet ~to_:(Keys.address bob) ~amount:(coin 777) with
  | Ok txid ->
      ignore
        (Engine.run
           ~stop:(fun () ->
             Array.for_all (fun n -> Node.confirmations n txid >= 3) w.nodes)
           ~until:200_000.0 w.engine);
      Array.iter
        (fun n ->
          Alcotest.(check bool)
            ("confirmed on " ^ Node.id n)
            true
            (Node.confirmations n txid >= 3))
        w.nodes
  | Error e -> Alcotest.fail e);
  (* Balances reflect the payment on every node. *)
  Array.iter
    (fun n ->
      Alcotest.(check int64) "bob's balance" 10_000_777L (Node.balance_of n (Keys.address bob)))
    w.nodes

let test_network_partition_forks_and_heals () =
  let w = make_world ~seed:23 ~n:4 () in
  run_until_height w 3;
  (* Split 2-2; both sides keep mining. *)
  Network.partition w.network [ [ "node0"; "node1" ]; [ "node2"; "node3" ] ];
  let h0 = Node.tip_height w.nodes.(0) in
  ignore
    (Engine.run
       ~stop:(fun () -> Array.for_all (fun n -> Node.tip_height n >= h0 + 4) w.nodes)
       ~until:200_000.0 w.engine);
  let tip_a = Store.tip_hash (Node.store w.nodes.(0)) in
  let tip_b = Store.tip_hash (Node.store w.nodes.(2)) in
  Alcotest.(check bool) "partition diverges tips" true (not (String.equal tip_a tip_b));
  (* Heal; peers exchange their next blocks and converge via reorg. *)
  Network.heal w.network;
  let target_h = max (Node.tip_height w.nodes.(0)) (Node.tip_height w.nodes.(2)) + 6 in
  ignore
    (Engine.run
       ~stop:(fun () -> Array.for_all (fun n -> Node.tip_height n >= target_h) w.nodes)
       ~until:200_000.0 w.engine);
  let common = target_h - 3 in
  let hs =
    Array.map
      (fun n ->
        match Store.block_at_height (Node.store n) common with
        | Some b -> Block.hash b
        | None -> Alcotest.fail "missing height")
      w.nodes
  in
  Array.iter (fun x -> Alcotest.(check bool) "converged" true (String.equal x hs.(0))) hs

let test_node_crash_and_recovery () =
  let w = make_world ~seed:24 () in
  run_until_height w 3;
  Node.crash w.nodes.(2);
  let h = Node.tip_height w.nodes.(0) in
  ignore
    (Engine.run
       ~stop:(fun () -> Node.tip_height w.nodes.(0) >= h + 3)
       ~until:200_000.0 w.engine);
  Alcotest.(check bool) "crashed node lags" true (Node.tip_height w.nodes.(2) < Node.tip_height w.nodes.(0));
  Node.recover w.nodes.(2);
  (* After recovery the node catches up from freshly relayed blocks. *)
  let target = Node.tip_height w.nodes.(0) + 4 in
  ignore
    (Engine.run
       ~stop:(fun () -> Array.for_all (fun n -> Node.tip_height n >= target) w.nodes)
       ~until:200_000.0 w.engine);
  Alcotest.(check bool) "caught up" true (Node.tip_height w.nodes.(2) >= target)

(* --- Wallet ------------------------------------------------------------------ *)

let test_wallet_insufficient_funds () =
  let w = make_world ~seed:25 () in
  let wallet = Wallet.create ~identity:(Keys.create "chain-test-pauper") ~node:w.nodes.(0) in
  (match Wallet.pay wallet ~to_:(Keys.address bob) ~amount:(coin 1) with
  | Error e -> Alcotest.(check bool) "explains" true (Astring.String.is_prefix ~affix:"insufficient" e)
  | Ok _ -> Alcotest.fail "paid with no funds");
  (* Alice's only coin is her premine. Once her own pending payment
     spends it, the refusal reports nothing spendable and the locked
     premine apart, not the ledger balance that still counts it. *)
  let alice_wallet = Wallet.create ~identity:alice ~node:w.nodes.(0) in
  (match Wallet.pay alice_wallet ~to_:(Keys.address bob) ~amount:(coin 100) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let need = Amount.(coin 1000 + (Node.params w.nodes.(0)).Params.transfer_fee) in
  match Wallet.pay alice_wallet ~to_:(Keys.address bob) ~amount:(coin 1000) with
  | Error e ->
      Alcotest.(check string) "spendable and locked reported apart"
        (Printf.sprintf
           "insufficient funds: need %s, have 0 spendable (10000000 locked by pending spends)"
           (Amount.to_string need))
        e
  | Ok _ -> Alcotest.fail "spent a coin locked by a pending spend"

let test_wallet_change () =
  let store = mk_store () in
  (* A wallet needs a node; build a tiny world around the shared store via
     direct ledger access instead. *)
  ignore store;
  let w = make_world ~seed:26 () in
  run_until_height w 2;
  let wallet = Wallet.create ~identity:alice ~node:w.nodes.(0) in
  match Wallet.build wallet ~outputs:[ { addr = Keys.address bob; amount = coin 123 } ] () with
  | Ok tx ->
      (* Exactly one change output back to alice. *)
      let change =
        List.filter (fun (o : Tx.output) -> o.addr = Wallet.address wallet) tx.Tx.outputs
      in
      Alcotest.(check int) "change output" 1 (List.length change)
  | Error e -> Alcotest.fail e

let test_wallet_pending_outpoint_not_reused () =
  (* Alice's premine is a single UTXO. A second payment submitted before
     the first confirms must not double-spend it (miners would silently
     drop the conflicting transaction); once the first is mined the
     change is spendable and the retry goes through. *)
  let w = make_world ~seed:27 () in
  run_until_height w 2;
  let wallet = Wallet.create ~identity:alice ~node:w.nodes.(0) in
  let txid1 =
    match Wallet.pay wallet ~to_:(Keys.address bob) ~amount:(coin 100) with
    | Ok txid -> txid
    | Error e -> Alcotest.fail e
  in
  (match Wallet.pay wallet ~to_:(Keys.address bob) ~amount:(coin 100) with
  | Error e ->
      Alcotest.(check bool) "declines rather than double-spends" true
        (Astring.String.is_prefix ~affix:"insufficient" e)
  | Ok _ -> Alcotest.fail "reused an outpoint pending in the mempool");
  ignore
    (Engine.run
       ~stop:(fun () -> Node.confirmations w.nodes.(0) txid1 >= 3)
       ~until:200_000.0 w.engine);
  match Wallet.pay wallet ~to_:(Keys.address bob) ~amount:(coin 100) with
  | Error e -> Alcotest.fail e
  | Ok txid2 ->
      ignore
        (Engine.run
           ~stop:(fun () -> Node.confirmations w.nodes.(0) txid2 >= 3)
           ~until:200_000.0 w.engine);
      Alcotest.(check int64) "both payments landed" 10_000_200L
        (Node.balance_of w.nodes.(0) (Keys.address bob))

let test_wallet_siblings_serialize_on_outpoint () =
  (* The load engine gives every in-flight swap its own Wallet over a
     shared identity, so two concurrent swaps contend for the same
     premine outpoint through *different* wallet instances. Selection
     consults the node mempool's spent-outpoint index, not per-wallet
     state: the second wallet must decline rather than emit a
     conflicting spend the miners would silently drop. *)
  let w = make_world ~seed:31 () in
  run_until_height w 2;
  let node = w.nodes.(0) in
  let w1 = Wallet.create ~identity:alice ~node in
  let w2 = Wallet.create ~identity:alice ~node in
  let txid1 =
    match Wallet.pay w1 ~to_:(Keys.address bob) ~amount:(coin 100) with
    | Ok txid -> txid
    | Error e -> Alcotest.fail e
  in
  (match Wallet.pay w2 ~to_:(Keys.address carol) ~amount:(coin 100) with
  | Error e ->
      Alcotest.(check bool) "sibling declines pending outpoint" true
        (Astring.String.is_prefix ~affix:"insufficient" e)
  | Ok _ -> Alcotest.fail "sibling wallet double-spent a pending outpoint");
  ignore
    (Engine.run ~stop:(fun () -> Node.confirmations node txid1 >= 3) ~until:200_000.0 w.engine);
  (* Once the first spend confirms, its change is fair game and the
     sibling's retry serializes behind it. *)
  match Wallet.pay w2 ~to_:(Keys.address carol) ~amount:(coin 100) with
  | Error e -> Alcotest.fail e
  | Ok txid2 ->
      ignore
        (Engine.run ~stop:(fun () -> Node.confirmations node txid2 >= 3) ~until:200_000.0 w.engine);
      Alcotest.(check int64) "bob paid exactly once" 10_000_100L
        (Node.balance_of node (Keys.address bob));
      Alcotest.(check int64) "carol paid exactly once" 100L
        (Node.balance_of node (Keys.address carol))

let test_wallet_refused_deploy_defers_args () =
  (* A deploy the wallet cannot fund never builds its constructor
     arguments and leaves the nonce where it was. A sibling wallet's
     pending payment locks alice's only coin. *)
  let w = make_world ~seed:28 () in
  let node = w.nodes.(0) in
  let payer = Wallet.create ~identity:alice ~node in
  let deployer = Wallet.create ~identity:alice ~node in
  let txid1 =
    match Wallet.pay payer ~to_:(Keys.address bob) ~amount:(coin 100) with
    | Ok txid -> txid
    | Error e -> Alcotest.fail e
  in
  let forced = ref false in
  (match
     Wallet.deploy deployer ~code_id:"test-counter"
       ~args:(fun () ->
         forced := true;
         Value.Int 0L)
       ~deposit:Amount.zero
   with
  | Error e ->
      Alcotest.(check bool) "refused for funds" true (Astring.String.is_prefix ~affix:"insufficient" e)
  | Ok _ -> Alcotest.fail "deployed with its only coin locked");
  Alcotest.(check bool) "args thunk never forced" false !forced;
  ignore (Engine.run ~stop:(fun () -> Node.confirmations node txid1 >= 1) ~until:200_000.0 w.engine);
  match Wallet.build deployer ~outputs:[ { addr = Keys.address bob; amount = coin 1 } ] () with
  | Ok tx -> Alcotest.(check int64) "refusal did not advance the nonce" 0L tx.Tx.nonce
  | Error e -> Alcotest.fail e

let test_wallet_refused_call_defers_args () =
  (* The call twin of the deploy case above. A call the wallet cannot
     fund never forces its argument thunk; a funded call whose thunk
     fails submits nothing. Neither advances the nonce. *)
  let w = make_world ~seed:30 () in
  let node = w.nodes.(0) in
  let payer = Wallet.create ~identity:alice ~node in
  let caller = Wallet.create ~identity:alice ~node in
  let txid1 =
    match Wallet.pay payer ~to_:(Keys.address bob) ~amount:(coin 100) with
    | Ok txid -> txid
    | Error e -> Alcotest.fail e
  in
  let forced = ref 0 in
  let call args =
    Wallet.call caller ~contract_id:(String.make 32 'c') ~fn:"incr"
      ~args:(fun () ->
        incr forced;
        args)
      ()
  in
  (match call (Ok Value.Unit) with
  | Error e ->
      Alcotest.(check bool) "refused for funds" true (Astring.String.is_prefix ~affix:"insufficient" e)
  | Ok _ -> Alcotest.fail "called with its only coin locked");
  Alcotest.(check int) "args thunk never forced" 0 !forced;
  ignore (Engine.run ~stop:(fun () -> Node.confirmations node txid1 >= 1) ~until:200_000.0 w.engine);
  let pending = Mempool.size (Node.mempool node) in
  (match call (Error "no evidence yet") with
  | Error e -> Alcotest.(check string) "thunk's error returned" "no evidence yet" e
  | Ok _ -> Alcotest.fail "submitted a call whose arguments failed");
  Alcotest.(check int) "funded call forced its thunk" 1 !forced;
  Alcotest.(check int) "nothing submitted" pending (Mempool.size (Node.mempool node));
  match Wallet.build caller ~outputs:[ { addr = Keys.address bob; amount = coin 1 } ] () with
  | Ok tx -> Alcotest.(check int64) "refusals did not advance the nonce" 0L tx.Tx.nonce
  | Error e -> Alcotest.fail e

let test_wallet_sibling_deploys_distinct_contracts () =
  (* Sibling wallets of one identity start at the same nonce, so
     byte-identical deploy payloads in one tick differ only in the coins
     they spend. The second wallet must take another coin or be
     refused: the same coin would mean the same txid, hence the same
     contract id. *)
  let w = make_world ~seed:29 () in
  let node = w.nodes.(0) in
  let deploy_pair () =
    let deploy wallet =
      Wallet.deploy wallet ~code_id:"test-counter" ~args:(fun () -> Value.Int 7L) ~deposit:(coin 10)
    in
    let first = deploy (Wallet.create ~identity:alice ~node) in
    (first, deploy (Wallet.create ~identity:alice ~node))
  in
  let confirm txid =
    ignore (Engine.run ~stop:(fun () -> Node.confirmations node txid >= 1) ~until:200_000.0 w.engine)
  in
  (* One coin (the premine): the sibling is refused. *)
  (match deploy_pair () with
  | Ok (txid, _), Error e ->
      Alcotest.(check bool) "one coin: sibling refused" true
        (Astring.String.is_prefix ~affix:"insufficient" e);
      confirm txid
  | Ok _, Ok _ -> Alcotest.fail "one coin funded two deploys"
  | Error e, _ -> Alcotest.fail e);
  (* Split alice's change into two coins, then deploy the same payload
     twice again: the sibling takes the other coin. *)
  (match Wallet.pay (Wallet.create ~identity:alice ~node) ~to_:(Keys.address alice) ~amount:(coin 1_000_000) with
  | Ok txid -> confirm txid
  | Error e -> Alcotest.fail e);
  match deploy_pair () with
  | Ok (txid1, cid1), Ok (txid2, cid2) ->
      Alcotest.(check bool) "distinct contract ids" false (String.equal cid1 cid2);
      confirm txid1;
      confirm txid2;
      Alcotest.(check bool) "both contracts live" true
        (Node.contract node cid1 <> None && Node.contract node cid2 <> None)
  | Error e, _ | _, Error e -> Alcotest.fail e

(* --- SPV ---------------------------------------------------------------------- *)

let test_spv_tracks_and_verifies () =
  let store = mk_store () in
  let tx = spend_premine store ~from_:alice ~to_:bob ~amount:(coin 5) ~fee:(coin 100) in
  let block1, r = mine_into store [ tx ] in
  expect_added r;
  for _ = 1 to 3 do
    let _, r = mine_into store [] in
    expect_added r
  done;
  let spv = Spv.create ~genesis_header:(Store.genesis store).Block.header in
  (match Spv.add_headers spv (Store.headers_from store ~from_:1) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "tip synced" (Store.tip_height store) (Spv.tip_height spv);
  (* Prove the transfer's inclusion to the light client. *)
  let txid = Tx.txid tx in
  let index =
    match Store.find_tx store txid with
    | Some (_, i) -> i
    | None -> Alcotest.fail "tx not found"
  in
  let proof = Block.tx_proof block1 index in
  (match
     Spv.verify_inclusion spv ~header_hash:(Block.hash block1) ~txid ~proof ~depth:3
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Too deep a requirement fails. *)
  Alcotest.(check bool) "depth not met" true
    (Result.is_error
       (Spv.verify_inclusion spv ~header_hash:(Block.hash block1) ~txid ~proof ~depth:10));
  (* A foreign txid fails. *)
  Alcotest.(check bool) "wrong txid" true
    (Result.is_error
       (Spv.verify_inclusion spv ~header_hash:(Block.hash block1)
          ~txid:(Ac3_crypto.Sha256.digest "no") ~proof ~depth:1))

let test_spv_rejects_bogus_header () =
  let store = mk_store () in
  let spv = Spv.create ~genesis_header:(Store.genesis store).Block.header in
  let bogus =
    {
      (Store.genesis store).Block.header with
      Block.height = 1;
      parent = Block.hash (Store.genesis store);
      nonce = 12345L;
    }
  in
  (* Unless the forged nonce accidentally meets the target, this fails. *)
  match Spv.add_header spv bogus with
  | Error _ -> ()
  | Ok _ -> () (* possible at tiny difficulty; not an error of the SPV *)

(* --- Network ----------------------------------------------------------- *)

let test_network_partition_predicates () =
  let engine = Engine.create () in
  let rng = Rng.create 1 in
  let net = Network.create ~engine ~rng () in
  Network.register net ~id:"a" (fun _ -> ());
  Network.register net ~id:"b" (fun _ -> ());
  Network.register net ~id:"c" (fun _ -> ());
  Alcotest.(check bool) "connected by default" true (Network.reachable net ~from:"a" ~to_:"b");
  Network.partition net [ [ "a" ]; [ "b" ] ];
  Alcotest.(check bool) "a-b cut" false (Network.reachable net ~from:"a" ~to_:"b");
  Alcotest.(check bool) "unlisted c cut from a" false (Network.reachable net ~from:"a" ~to_:"c");
  Network.heal net;
  Alcotest.(check bool) "healed" true (Network.reachable net ~from:"a" ~to_:"b");
  Network.isolate net "b";
  Alcotest.(check bool) "isolated" false (Network.reachable net ~from:"a" ~to_:"b");
  Network.reconnect net "b";
  Alcotest.(check bool) "reconnected" true (Network.reachable net ~from:"a" ~to_:"b")

let test_network_duplicate_endpoint () =
  let engine = Engine.create () in
  let net = Network.create ~engine ~rng:(Rng.create 2) () in
  Network.register net ~id:"x" (fun _ -> ());
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Network.register: duplicate endpoint \"x\"") (fun () ->
      Network.register net ~id:"x" (fun _ -> ()))

let test_network_delivery_and_stats () =
  let engine = Engine.create () in
  let net = Network.create ~min_delay:0.1 ~max_delay:0.2 ~engine ~rng:(Rng.create 3) () in
  let got = ref 0 in
  Network.register net ~id:"a" (fun _ -> ());
  Network.register net ~id:"b" (fun _ -> incr got);
  let tx =
    Tx.coinbase ~chain:"t" ~height:0 ~miner_addr:(Keys.address alice) ~reward:Amount.zero
  in
  Network.send net ~from:"a" ~to_:"b" (Network.Tx_msg tx);
  Network.broadcast net ~from:"a" (Network.Tx_msg tx);
  ignore (Engine.run engine);
  Alcotest.(check int) "both delivered" 2 !got;
  let sent, delivered, dropped = Network.stats net in
  Alcotest.(check int) "sent" 2 sent;
  Alcotest.(check int) "delivered" 2 delivered;
  Alcotest.(check int) "dropped" 0 dropped

let mk_msg () =
  Network.Tx_msg
    (Tx.coinbase ~chain:"t" ~height:0 ~miner_addr:(Keys.address alice) ~reward:Amount.zero)

let test_network_partition_edge_cases () =
  let engine = Engine.create () in
  let net = Network.create ~engine ~rng:(Rng.create 11) () in
  List.iter (fun id -> Network.register net ~id (fun _ -> ())) [ "a"; "b"; "c" ];
  (* A node listed in several groups lands in the last one listed. *)
  Network.partition net [ [ "a"; "b" ]; [ "b"; "c" ] ];
  Alcotest.(check bool) "b moved to last group" true (Network.reachable net ~from:"b" ~to_:"c");
  Alcotest.(check bool) "b cut from first group" false (Network.reachable net ~from:"a" ~to_:"b");
  (* Empty groups are inert: a partition of only-empty groups is full
     connectivity (everyone shares the implicit group). *)
  Network.partition net [ []; [] ];
  Alcotest.(check bool) "empty groups connect all" true (Network.reachable net ~from:"a" ~to_:"b");
  Alcotest.(check bool) "empty groups connect all 2" true (Network.reachable net ~from:"b" ~to_:"c");
  (* Heal-then-repartition starts from a clean table: only the new split
     applies, nothing lingers from the old one. *)
  Network.partition net [ [ "a" ]; [ "b" ] ];
  Network.heal net;
  Network.partition net [ [ "c" ] ];
  Alcotest.(check bool) "old split gone" true (Network.reachable net ~from:"a" ~to_:"b");
  Alcotest.(check bool) "new split applies" false (Network.reachable net ~from:"a" ~to_:"c")

let test_network_partition_drops_not_queues () =
  (* A send across a partition is dropped outright: healing later must
     not resurrect it. *)
  let engine = Engine.create () in
  let net = Network.create ~engine ~rng:(Rng.create 12) () in
  let got = ref 0 in
  Network.register net ~id:"a" (fun _ -> ());
  Network.register net ~id:"b" (fun _ -> incr got);
  Network.partition net [ [ "a" ]; [ "b" ] ];
  Network.send net ~from:"a" ~to_:"b" (mk_msg ());
  Network.heal net;
  ignore (Engine.run engine);
  Alcotest.(check int) "nothing delivered after heal" 0 !got;
  let _, _, dropped = Network.stats net in
  Alcotest.(check int) "dropped at send time" 1 dropped;
  (* Sanity: the healed link actually works for fresh sends. *)
  Network.send net ~from:"a" ~to_:"b" (mk_msg ());
  ignore (Engine.run engine);
  Alcotest.(check int) "fresh send delivered" 1 !got

let test_network_drop_probability () =
  let engine = Engine.create () in
  let net = Network.create ~engine ~rng:(Rng.create 13) () in
  let got = ref 0 in
  Network.register net ~id:"a" (fun _ -> ());
  Network.register net ~id:"b" (fun _ -> incr got);
  Alcotest.check_raises "p out of range" (Invalid_argument "Network.set_drop_probability")
    (fun () -> Network.set_drop_probability net 1.5);
  Network.set_drop_probability net 1.0;
  for _ = 1 to 20 do
    Network.send net ~from:"a" ~to_:"b" (mk_msg ())
  done;
  ignore (Engine.run engine);
  Alcotest.(check int) "p=1 drops everything" 0 !got;
  Network.set_drop_probability net 0.5;
  for _ = 1 to 200 do
    Network.send net ~from:"a" ~to_:"b" (mk_msg ())
  done;
  ignore (Engine.run engine);
  Alcotest.(check bool) "p=0.5 drops about half" true (!got > 60 && !got < 140);
  Network.set_drop_probability net 0.0;
  Alcotest.(check (float 1e-9)) "probability readable" 0.0 (Network.drop_probability net)

let test_network_fault_hook () =
  let engine = Engine.create () in
  let net = Network.create ~min_delay:0.1 ~max_delay:0.2 ~engine ~rng:(Rng.create 14) () in
  let got = ref [] in
  Network.register net ~id:"a" (fun _ -> ());
  Network.register net ~id:"b" (fun _ -> got := ("b", Engine.now engine) :: !got);
  Network.register net ~id:"c" (fun _ -> got := ("c", Engine.now engine) :: !got);
  (* Drop everything towards b, slow everything towards c. *)
  Network.set_fault_hook net (fun ~from:_ ~to_ _msg ->
      if String.equal to_ "b" then Network.Drop_msg else Network.Delay_extra 10.0);
  Network.broadcast net ~from:"a" (mk_msg ());
  ignore (Engine.run engine);
  (match !got with
  | [ ("c", time) ] -> Alcotest.(check bool) "c delayed by hook" true (time > 10.0)
  | _ -> Alcotest.fail "expected exactly one delayed delivery to c");
  let _, delivered, dropped = Network.stats net in
  Alcotest.(check int) "one delivered" 1 delivered;
  Alcotest.(check int) "one dropped" 1 dropped;
  (* Clearing the hook restores normal delivery. *)
  Network.clear_fault_hook net;
  got := [];
  Network.send net ~from:"a" ~to_:"b" (mk_msg ());
  ignore (Engine.run engine);
  Alcotest.(check int) "b reachable again" 1 (List.length !got)

(* --- Params ----------------------------------------------------------------- *)

let test_params_presets_match_table1 () =
  Alcotest.(check (float 0.01)) "bitcoin 7 tps" 7.0 (Params.tps (Params.bitcoin ()));
  Alcotest.(check (float 0.01)) "ethereum 25 tps" 25.0 (Params.tps (Params.ethereum ()));
  Alcotest.(check (float 0.01)) "litecoin 56 tps" 56.0 (Params.tps (Params.litecoin ()));
  Alcotest.(check (float 0.01)) "bch 61 tps" 61.0 (Params.tps (Params.bitcoin_cash ()))

let test_params_validation () =
  Alcotest.check_raises "bad interval"
    (Invalid_argument "Params.make: block_interval must be positive") (fun () ->
      ignore (Params.make "x" ~block_interval:0.0));
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Params.make: block_capacity must be >= 1") (fun () ->
      ignore (Params.make "x" ~block_capacity:0))

let test_params_fee_schedule () =
  let p = Params.make "x" in
  Alcotest.(check int64) "transfer" (Amount.to_int64 p.Params.transfer_fee)
    (Amount.to_int64 (Params.required_fee p Tx.Transfer));
  Alcotest.(check int64) "deploy = fd" (Amount.to_int64 p.Params.deploy_fee)
    (Amount.to_int64
       (Params.required_fee p (Tx.Deploy { code_id = "c"; args = Value.Unit; deposit = 0L })));
  Alcotest.(check int64) "call = ffc" (Amount.to_int64 p.Params.call_fee)
    (Amount.to_int64
       (Params.required_fee p
          (Tx.Call { contract_id = "c"; fn = "f"; args = Value.Unit; deposit = 0L })))

(* --- Block header codec -------------------------------------------------------- *)

let test_block_header_roundtrip () =
  let store = mk_store () in
  let _, r = mine_into store [] in
  expect_added r;
  let h = (Store.tip store).Block.header in
  let h' = Codec.decode Block.decode_header (Codec.encode Block.encode_header h) in
  Alcotest.(check string) "hash stable" (Ac3_crypto.Hex.encode (Block.hash_header h))
    (Ac3_crypto.Hex.encode (Block.hash_header h'))

let test_block_tx_inclusion_proofs () =
  let store = mk_store () in
  let tx1 = spend_premine store ~from_:alice ~to_:bob ~amount:(coin 1) ~fee:(coin 100) in
  let tx2 = spend_premine store ~from_:bob ~to_:alice ~amount:(coin 2) ~fee:(coin 100) in
  let block, r = mine_into store [ tx1; tx2 ] in
  expect_added r;
  List.iteri
    (fun i tx ->
      let proof = Block.tx_proof block i in
      Alcotest.(check bool)
        (Printf.sprintf "tx %d included" i)
        true
        (Block.verify_tx_inclusion ~header:block.Block.header ~txid:(Tx.txid tx) proof))
    block.Block.txs;
  (* A txid from elsewhere fails against any proof. *)
  let proof = Block.tx_proof block 0 in
  Alcotest.(check bool) "foreign txid rejected" false
    (Block.verify_tx_inclusion ~header:block.Block.header
       ~txid:(Ac3_crypto.Sha256.digest "nope") proof)

(* --- Wallet contract paths -------------------------------------------------------- *)

let test_wallet_deploy_and_call () =
  let w = make_world ~seed:27 () in
  run_until_height w 2;
  let wallet = Wallet.create ~identity:alice ~node:w.nodes.(0) in
  match
    Wallet.deploy wallet ~code_id:"test-counter" ~args:(fun () -> Value.Int 41L)
      ~deposit:Amount.zero
  with
  | Error e -> Alcotest.fail e
  | Ok (txid, cid) -> (
      ignore
        (Engine.run
           ~stop:(fun () -> Node.confirmations w.nodes.(0) txid >= 1)
           ~until:200_000.0 w.engine);
      match Wallet.call wallet ~contract_id:cid ~fn:"incr" ~args:(fun () -> Ok Value.Unit) () with
      | Error e -> Alcotest.fail e
      | Ok call_txid ->
          ignore
            (Engine.run
               ~stop:(fun () -> Node.confirmations w.nodes.(0) call_txid >= 1)
               ~until:200_000.0 w.engine);
          (match Node.contract w.nodes.(0) cid with
          | Some c -> Alcotest.(check bool) "state 42" true (Value.equal c.Ledger.state (Value.Int 42L))
          | None -> Alcotest.fail "contract missing"))

let () =
  Alcotest.run "chain"
    [
      ( "amount",
        [
          Alcotest.test_case "arithmetic" `Quick test_amount_arithmetic;
          Alcotest.test_case "negative rejected" `Quick test_amount_negative_rejected;
        ] );
      ( "value",
        [
          QCheck_alcotest.to_alcotest qcheck_value_roundtrip;
          Alcotest.test_case "record access" `Quick test_value_record_access;
        ] );
      ( "tx",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_tx_roundtrip;
          Alcotest.test_case "signature binds body" `Quick test_tx_signature_binds_body;
          Alcotest.test_case "chain binding (no replay)" `Quick test_tx_chain_binding;
        ] );
      ( "pow",
        [
          Alcotest.test_case "target bits" `Quick test_pow_target_bits;
          Alcotest.test_case "mine and verify" `Quick test_pow_mine_and_verify;
          QCheck_alcotest.to_alcotest qcheck_pow_grind;
          QCheck_alcotest.to_alcotest qcheck_pow_grind_window;
          Alcotest.test_case "grind failures" `Quick test_pow_grind_failures;
          Alcotest.test_case "work monotone" `Quick test_pow_work_monotone;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "premine" `Quick test_ledger_premine;
          Alcotest.test_case "utxos and code ids sorted" `Quick test_ledger_utxos_sorted;
          Alcotest.test_case "transfer and conservation" `Quick test_ledger_transfer_and_conservation;
          Alcotest.test_case "double spend rejected" `Quick test_ledger_rejects_double_spend;
          Alcotest.test_case "theft rejected" `Quick test_ledger_rejects_theft;
          Alcotest.test_case "inflation rejected" `Quick test_ledger_rejects_inflation;
          Alcotest.test_case "fee floor" `Quick test_ledger_fee_floor;
          Alcotest.test_case "contract lifecycle" `Quick test_ledger_contract_lifecycle;
          Alcotest.test_case "vault deposit/payout" `Quick test_ledger_vault_payout;
        ] );
      ( "store",
        [
          Alcotest.test_case "duplicate and orphan" `Quick test_store_duplicate_and_orphan;
          Alcotest.test_case "bad pow rejected" `Quick test_store_rejects_bad_pow;
          Alcotest.test_case "reorg to heavier branch" `Quick test_store_reorg_switches_to_heavier_branch;
          Alcotest.test_case "reorg restores ledger" `Quick test_store_reorg_restores_ledger;
          Alcotest.test_case "call index follows a reorg" `Quick
            test_store_call_index_follows_reorg;
          Alcotest.test_case "confirmations" `Quick test_store_confirmations;
          Alcotest.test_case "headers_from" `Quick test_store_headers_from;
        ] );
      ( "mempool",
        [
          Alcotest.test_case "order and dedup" `Quick test_mempool_order_and_dedup;
          Alcotest.test_case "eviction protects settlement" `Quick
            test_mempool_eviction_protects_settlement;
          QCheck_alcotest.to_alcotest qcheck_mempool_candidates_arrival_order;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "network convergence" `Slow test_network_convergence;
          Alcotest.test_case "tx inclusion across nodes" `Slow test_network_tx_inclusion;
          Alcotest.test_case "partition forks and heals" `Slow test_network_partition_forks_and_heals;
          Alcotest.test_case "crash and recovery" `Slow test_node_crash_and_recovery;
        ] );
      ( "wallet",
        [
          Alcotest.test_case "insufficient funds" `Quick test_wallet_insufficient_funds;
          Alcotest.test_case "change output" `Slow test_wallet_change;
          Alcotest.test_case "pending outpoint not reused" `Slow
            test_wallet_pending_outpoint_not_reused;
          Alcotest.test_case "sibling wallets serialize" `Slow
            test_wallet_siblings_serialize_on_outpoint;
          Alcotest.test_case "refused deploy defers args" `Slow
            test_wallet_refused_deploy_defers_args;
          Alcotest.test_case "refused call defers args" `Slow test_wallet_refused_call_defers_args;
          Alcotest.test_case "sibling deploys, distinct contracts" `Slow
            test_wallet_sibling_deploys_distinct_contracts;
        ] );
      ( "spv",
        [
          Alcotest.test_case "tracks and verifies" `Quick test_spv_tracks_and_verifies;
          Alcotest.test_case "bogus header" `Quick test_spv_rejects_bogus_header;
        ] );
      ( "network-unit",
        [
          Alcotest.test_case "partition predicates" `Quick test_network_partition_predicates;
          Alcotest.test_case "duplicate endpoint" `Quick test_network_duplicate_endpoint;
          Alcotest.test_case "delivery and stats" `Quick test_network_delivery_and_stats;
          Alcotest.test_case "partition edge cases" `Quick test_network_partition_edge_cases;
          Alcotest.test_case "partition drops, not queues" `Quick
            test_network_partition_drops_not_queues;
          Alcotest.test_case "drop probability" `Quick test_network_drop_probability;
          Alcotest.test_case "fault hook" `Quick test_network_fault_hook;
        ] );
      ( "params",
        [
          Alcotest.test_case "presets match Table 1" `Quick test_params_presets_match_table1;
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "fee schedule" `Quick test_params_fee_schedule;
        ] );
      ( "block",
        [
          Alcotest.test_case "header codec roundtrip" `Quick test_block_header_roundtrip;
          Alcotest.test_case "tx inclusion proofs" `Quick test_block_tx_inclusion_proofs;
        ] );
      ( "wallet-contracts",
        [ Alcotest.test_case "deploy and call via wallet" `Slow test_wallet_deploy_and_call ] );
    ]
