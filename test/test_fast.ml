(* Differential harness for the lib/fast hot-path optimizations.

   Three rewrites ride behind existing interfaces: the index-sorted
   arena event queue (Ac3_sim.Engine), content-addressed digest
   memoization (Ac3_crypto, Ac3_chain), and incremental UTXO/ledger
   indexing across reorgs (Ac3_chain.Store). Each must be observably
   identical to its slow reference:

   - the engine is diffed event-by-event against the boxed-heap
     implementation it replaced (Reference.Engine) over randomized
     schedule/cancel/advance scripts;
   - every memoized digest path is computed with memo tables on and
     off (Ac3_fast.Memo.set_enabled) and the results compared, and the
     transaction ids fixed at construction are checked against digests
     of the encoding, including for rebuilt, foreign-witness copies;
   - reorged stores are diffed against fresh stores that only ever saw
     the winning branch, and chaos sweeps and corpus replays are
     rendered byte-for-byte under --jobs {1,2,4} and memo on/off. *)

module Engine = Ac3_sim.Engine
module Memo = Ac3_fast.Memo
module Sha256 = Ac3_crypto.Sha256
module Merkle = Ac3_crypto.Merkle
module Keys = Ac3_crypto.Keys
module Json = Ac3_crypto.Codec.Json
module Runner = Ac3_chaos.Runner
module Repro = Ac3_chaos.Repro
module Metrics = Ac3_obs.Metrics
module Obs = Ac3_obs.Obs
open Ac3_chain

(* --- Engine vs boxed-heap reference ----------------------------------- *)

(* Scripts quantize delays to quarter seconds and horizons to half
   seconds so equal-timestamp collisions (the tie-break path) are
   common, not accidental. *)
type op =
  | Schedule of int * int  (* delay in 1/4 s, label *)
  | Nested of int * int  (* outer delay, inner delay: callback schedules *)
  | Cancel of int  (* cancel the (k mod created)-th handle *)
  | Advance of int  (* run ~until:(now + k/2 s) *)

let pp_op = function
  | Schedule (d, l) -> Printf.sprintf "Schedule(%d,%d)" d l
  | Nested (a, b) -> Printf.sprintf "Nested(%d,%d)" a b
  | Cancel k -> Printf.sprintf "Cancel(%d)" k
  | Advance q -> Printf.sprintf "Advance(%d)" q

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun d l -> Schedule (d, l)) (int_bound 16) (int_bound 99));
        (2, map2 (fun a b -> Nested (a, b)) (int_bound 16) (int_bound 8));
        (2, map (fun k -> Cancel k) (int_bound 31));
        (3, map (fun q -> Advance q) (int_bound 8));
      ])

let script_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 40) op_gen)

(* Everything the script needs from an engine, so the same interpreter
   drives both implementations. *)
type 'h iface = {
  schedule : float -> (unit -> unit) -> 'h;
  cancel : 'h -> unit;
  is_cancelled : 'h -> bool;
  run_upto : float -> int;
  now : unit -> float;
  pending : unit -> int;
  executed : unit -> int;
}

let fast_iface () =
  let e = Engine.create () in
  {
    schedule = (fun delay f -> Engine.schedule e ~delay f);
    cancel = Engine.cancel;
    is_cancelled = Engine.is_cancelled;
    run_upto = (fun u -> Engine.run ~until:u e);
    now = (fun () -> Engine.now e);
    pending = (fun () -> Engine.pending_events e);
    executed = (fun () -> Engine.executed_events e);
  }

let ref_iface () =
  let e = Reference.Engine.create () in
  {
    schedule = (fun delay f -> Reference.Engine.schedule e ~delay f);
    cancel = Reference.Engine.cancel;
    is_cancelled = Reference.Engine.is_cancelled;
    run_upto = (fun u -> Reference.Engine.run ~until:u e);
    now = (fun () -> Reference.Engine.now e);
    pending = (fun () -> Reference.Engine.pending_events e);
    executed = (fun () -> Reference.Engine.executed_events e);
  }

(* Interpret [ops], logging every observable: fire order with
   timestamps, cancellation flags, run counts, clock, pending and
   executed totals. Two engines are equivalent iff their logs match. *)
let interp iface ops =
  let buf = Buffer.create 512 in
  let log fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let handles = ref [] in
  let n_handles = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Schedule (d, l) ->
          let h = iface.schedule (float_of_int d /. 4.0) (fun () -> log "fire %d @ %g" l (iface.now ())) in
          handles := h :: !handles;
          incr n_handles
      | Nested (a, b) ->
          let h =
            iface.schedule (float_of_int a /. 4.0) (fun () ->
                log "outer %d @ %g" a (iface.now ());
                ignore
                  (iface.schedule (float_of_int b /. 4.0) (fun () ->
                       log "inner %d.%d @ %g" a b (iface.now ()))))
          in
          handles := h :: !handles;
          incr n_handles
      | Cancel k ->
          if !n_handles > 0 then begin
            let i = k mod !n_handles in
            let h = List.nth !handles i in
            log "cancel %d was=%b" i (iface.is_cancelled h);
            iface.cancel h
          end
      | Advance q ->
          let u = iface.now () +. (float_of_int q /. 2.0) in
          let ran = iface.run_upto u in
          log "advance %g ran=%d now=%g pending=%d" u ran (iface.now ()) (iface.pending ()))
    ops;
  let ran = iface.run_upto 1e6 in
  log "drain ran=%d now=%g pending=%d executed=%d" ran (iface.now ()) (iface.pending ())
    (iface.executed ());
  Buffer.contents buf

let qcheck_engine_differential =
  QCheck.Test.make ~name:"arena engine == boxed-heap engine on random scripts" ~count:300
    script_arb (fun ops ->
      let fast = interp (fast_iface ()) ops in
      let slow = interp (ref_iface ()) ops in
      if not (String.equal fast slow) then
        QCheck.Test.fail_reportf "engine traces diverge:@.--- arena ---@.%s@.--- heap ---@.%s" fast
          slow;
      true)

(* --- Digest memoization: memo-on == memo-off -------------------------- *)

(* Compute [f] with every memo table bypassed and cleared — the
   reference mode. Re-enables the tables afterwards even on failure. *)
let memo_off f =
  Memo.set_enabled false;
  Memo.clear_all ();
  Fun.protect ~finally:(fun () -> Memo.set_enabled true) f

let hex = Ac3_crypto.Hex.encode

(* Deterministic identities for the whole file. Created once: MSS
   signing budgets (64 each) are consumed across test cases, so no test
   below signs inside a QCheck iteration. *)
let f_alice = Keys.create "fast-alice"

let f_bob = Keys.create "fast-bob"

let coin n = Amount.of_int n

let outpoint_gen =
  QCheck.Gen.(
    map2
      (fun tag index -> Outpoint.create ~txid:(Sha256.digest ("fast-op:" ^ string_of_int tag)) ~index)
      (int_bound 1000) (int_bound 3))

let output_gen =
  QCheck.Gen.(
    map2
      (fun tag amount -> { Tx.addr = String.sub (Sha256.digest ("fast-addr:" ^ string_of_int tag)) 0 20; amount = Amount.of_int (amount + 1) })
      (int_bound 1000) (int_bound 1_000_000))

let payload_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Tx.Transfer);
        ( 1,
          map2
            (fun n deposit ->
              Tx.Deploy { code_id = "fast-code"; args = Value.Int (Int64.of_int n); deposit = coin deposit })
            (int_bound 1000) (int_bound 50) );
        ( 1,
          map2
            (fun tag deposit ->
              Tx.Call
                {
                  contract_id = Sha256.digest ("fast-contract:" ^ string_of_int tag);
                  fn = "redeem";
                  args = Value.Bytes (string_of_int tag);
                  deposit = coin deposit;
                })
            (int_bound 1000) (int_bound 50) );
      ])

(* Unsigned transactions and coinbases: enough to drive the id fields
   without spending signature budget per iteration. *)
let unsigned_gen =
  QCheck.Gen.(
    map3
      (fun inputs outputs (payload, nonce) ->
        Tx.make_unsigned ~chain:"fastchain"
          ~inputs:(List.map (fun op -> (op, Keys.public f_alice)) inputs)
          ~outputs ~payload ~fee:(coin 7) ~nonce:(Int64.of_int nonce) ())
      (list_size (int_range 1 4) outpoint_gen)
      (list_size (int_range 1 4) output_gen)
      (pair payload_gen (int_bound 1_000_000)))

let coinbase_gen =
  QCheck.Gen.(
    map2
      (fun height (o : Tx.output) ->
        Tx.coinbase ~chain:"fastchain" ~height ~miner_addr:o.addr ~reward:o.amount)
      (int_bound 100_000) output_gen)

(* Signed transactions of every spending payload kind, signed once at
   module init by an identity of their own. *)
let signed_txs =
  let signer = Keys.create "fast-ids" in
  let payloads =
    QCheck.Gen.generate ~rand:(Random.State.make [| 21 |]) ~n:6 payload_gen
  in
  Array.of_list
    (List.mapi
       (fun i payload ->
         Tx.make ~chain:"fastchain"
           ~inputs:
             (List.init (1 + (i mod 2)) (fun k ->
                  (Outpoint.create ~txid:(Sha256.digest ("fast-ids-op:" ^ string_of_int i)) ~index:k, signer)))
           ~outputs:[ { Tx.addr = Keys.address f_bob; amount = coin (10 + i) } ]
           ~payload ~fee:(coin 1) ~nonce:(Int64.of_int i) ())
       payloads)

let tx_gen =
  QCheck.Gen.(
    frequency
      [
        (3, unsigned_gen);
        (1, coinbase_gen);
        (2, map (Array.get signed_txs) (int_bound (Array.length signed_txs - 1)));
      ])

let tx_arb = QCheck.make ~print:(fun tx -> hex (Tx.to_bytes tx)) tx_gen

(* The signed body, recovered from the full encoding of the same
   transaction without its witnesses: that encoding ends in the 2-byte
   witness count, here zero. *)
let body_bytes (tx : Tx.t) =
  let bare =
    Tx.raw ~chain:tx.chain ~inputs:tx.inputs ~witnesses:[] ~outputs:tx.outputs ~payload:tx.payload
      ~fee:tx.fee ~nonce:tx.nonce
  in
  let b = Tx.to_bytes bare in
  String.sub b 0 (String.length b - 2)

let qcheck_tx_ids_fixed_at_construction =
  QCheck.Test.make ~name:"tx ids: fields == digests of the encoding, kept by decode" ~count:200
    tx_arb (fun tx ->
      let decoded = Tx.of_bytes (Tx.to_bytes tx) in
      String.equal (Tx.txid tx) (Sha256.digest2 (Tx.to_bytes tx))
      && String.equal (Tx.sighash tx) (Sha256.digest_list [ "tx-sighash"; body_bytes tx ])
      && String.equal (Tx.txid decoded) (Tx.txid tx)
      && String.equal (Tx.sighash decoded) (Tx.sighash tx))

let qcheck_merkle_memo_differential =
  QCheck.Test.make ~name:"merkle root: memoized == recomputed" ~count:100
    QCheck.(list_of_size Gen.(0 -- 12) (string_of_size Gen.(0 -- 40)))
    (fun leaves ->
      let r1 = Merkle.root leaves in
      let r2 = Merkle.root leaves in
      let r0 = memo_off (fun () -> Merkle.root leaves) in
      String.equal r1 r2 && String.equal r1 r0)

(* A small pool of real signatures, signed once at module init. *)
let signed_pool =
  List.init 8 (fun i ->
      let msg = Printf.sprintf "fast-msg-%d" i in
      (msg, Keys.sign f_bob msg))

let qcheck_verify_memo_differential =
  QCheck.Test.make ~name:"Keys.verify: memoized == recomputed, including mismatches" ~count:100
    QCheck.(pair (int_bound 7) (int_bound 7))
    (fun (i, j) ->
      let msg_i, sig_i = List.nth signed_pool i in
      let msg_j, _ = List.nth signed_pool j in
      let pk = Keys.public f_bob in
      (* Match and cross-match: a wrong (msg, sig) pairing is a
         different memo key, so the cache can never alias verdicts. *)
      let v_ok = Keys.verify pk msg_i sig_i in
      let v_cross = Keys.verify pk msg_j sig_i in
      let v_ok0, v_cross0 =
        memo_off (fun () -> (Keys.verify pk msg_i sig_i, Keys.verify pk msg_j sig_i))
      in
      v_ok && Bool.equal v_ok v_ok0 && Bool.equal v_cross (i = j) && Bool.equal v_cross v_cross0)

(* --- Invalidation: a changed witness is a different transaction ------ *)

let dummy_op tag = Outpoint.create ~txid:(Sha256.digest ("fast-mut:" ^ tag)) ~index:0

(* [tx] rebuilt through the raw constructor with [witnesses]. *)
let with_witnesses (tx : Tx.t) witnesses =
  Tx.raw ~chain:tx.chain ~inputs:tx.inputs ~witnesses ~outputs:tx.outputs ~payload:tx.payload
    ~fee:tx.fee ~nonce:tx.nonce

let test_foreign_witness_new_txid () =
  let mk nonce op =
    Tx.make ~chain:"fastchain"
      ~inputs:[ (op, f_alice) ]
      ~outputs:[ { Tx.addr = Keys.address f_bob; amount = coin 100 } ]
      ~fee:(coin 1) ~nonce ()
  in
  let tx = mk 1L (dummy_op "a") and donor = mk 2L (dummy_op "b") in
  Alcotest.(check bool) "signed tx verifies" true (Tx.verify_signatures tx);
  let forged = with_witnesses tx donor.Tx.witnesses in
  Alcotest.(check bool) "foreign witness changes txid" false
    (String.equal (Tx.txid tx) (Tx.txid forged));
  Alcotest.(check string) "forged txid == digest of its encoding"
    (hex (Sha256.digest2 (Tx.to_bytes forged)))
    (hex (Tx.txid forged));
  Alcotest.(check string) "sighash ignores witnesses" (hex (Tx.sighash tx)) (hex (Tx.sighash forged));
  Alcotest.(check bool) "foreign witness rejected" false (Tx.verify_signatures forged);
  let rebuilt = with_witnesses forged tx.Tx.witnesses in
  Alcotest.(check string) "own witness restores the txid" (hex (Tx.txid tx)) (hex (Tx.txid rebuilt));
  Alcotest.(check bool) "rebuilt tx verifies" true (Tx.verify_signatures rebuilt)

let test_foreign_witness_new_root () =
  let txs =
    List.init 3 (fun i ->
        Tx.make ~chain:"fastchain"
          ~inputs:[ (dummy_op (string_of_int i), f_alice) ]
          ~outputs:[ { Tx.addr = Keys.address f_bob; amount = coin (50 + i) } ]
          ~fee:(coin 1)
          ~nonce:(Int64.of_int (10 + i))
          ())
  in
  let root_before = Block.merkle_root_of_txs txs in
  let donor = List.nth txs 2 in
  let forged =
    List.mapi (fun i tx -> if i = 1 then with_witnesses tx donor.Tx.witnesses else tx) txs
  in
  let root_forged = Block.merkle_root_of_txs forged in
  Alcotest.(check bool) "foreign-witness tx changes the merkle root" false
    (String.equal root_before root_forged);
  Alcotest.(check string) "forged root == uncached root"
    (hex (memo_off (fun () -> Block.merkle_root_of_txs forged)))
    (hex root_forged);
  Alcotest.(check string) "original root unchanged" (hex root_before)
    (hex (Block.merkle_root_of_txs txs))

let test_block_hash_memo_differential () =
  let cb = Tx.coinbase ~chain:"fastchain" ~height:1 ~miner_addr:(Keys.address f_alice) ~reward:(coin 100) in
  let block =
    Block.mine ~chain:"fastchain" ~height:1 ~parent:(Sha256.digest "fast-parent") ~time:1.0
      ~target:(Pow.target_of_bits 4) ~txs:[ cb ]
  in
  let h1 = Block.hash block in
  let h0 = memo_off (fun () -> Block.hash block) in
  Alcotest.(check string) "block hash: memoized == recomputed" (hex h0) (hex h1);
  Alcotest.(check bool) "meets target" true
    (Pow.meets_target ~target:block.Block.header.Block.target ~hash:h1)

(* --- Ledger / store: incremental reorg == from-scratch ---------------- *)

let fast_premine = [ (Keys.address f_alice, coin 10_000_000); (Keys.address f_bob, coin 10_000_000) ]

let mk_store () =
  let params = Params.make "fastchain" ~pow_bits:4 ~confirm_depth:2 ~premine:fast_premine in
  Store.create ~params ~registry:(Ac3_chain.Contract_iface.create_registry ())

let mine_into ?(miner = "fast-miner") store txs =
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
  match Store.add_block store block with
  | Store.Added _ -> block
  | r -> Alcotest.failf "mine_into: unexpected %s" (match r with
      | Store.Added _ -> "Added" | Store.Duplicate -> "Duplicate" | Store.Orphaned -> "Orphaned"
      | Store.Invalid e -> "Invalid: " ^ e)

let spend ~from_ ~to_ ~amount ~fee ~nonce store =
  let ledger = Store.ledger store in
  match Ledger.utxos_of ledger (Keys.address from_) with
  | [] -> Alcotest.fail "no utxos to spend"
  | (op, (o : Tx.output)) :: _ ->
      Tx.make ~chain:"fastchain"
        ~inputs:[ (op, from_) ]
        ~outputs:
          [
            { Tx.addr = Keys.address to_; amount };
            { Tx.addr = Keys.address from_; amount = Amount.(o.amount - amount - fee) };
          ]
        ~fee ~nonce ()

(* Losing branch with transactions, heavier clean branch, reorg: the
   incrementally-maintained indexes (per-entry txids, undo logs,
   address index) must leave the store byte-equal in state digest to a
   fresh store that only ever saw the winning branch. *)
let reorg_digests ~nonce0 () =
  let store_a = mk_store () in
  let store_b = mk_store () in
  let tx1 =
    spend ~from_:f_alice ~to_:f_bob ~amount:(coin 1000) ~fee:(coin 100) ~nonce:nonce0 store_a
  in
  ignore (mine_into store_a [ tx1 ] : Block.t);
  let tx2 =
    spend ~from_:f_bob ~to_:f_alice ~amount:(coin 500) ~fee:(coin 100)
      ~nonce:(Int64.add nonce0 1L) store_a
  in
  ignore (mine_into store_a [ tx2 ] : Block.t);
  let digest_loser = Ledger.state_digest (Store.ledger store_a) in
  (* Winning branch: three empty blocks by a different miner. *)
  let b1 = mine_into ~miner:"fast-miner-b" store_b [] in
  let b2 = mine_into ~miner:"fast-miner-b" store_b [] in
  let b3 = mine_into ~miner:"fast-miner-b" store_b [] in
  List.iter
    (fun b ->
      match Store.add_block store_a b with
      | Store.Added _ -> ()
      | _ -> Alcotest.fail "branch b rejected")
    [ b1; b2; b3 ];
  Alcotest.(check string) "reorg switched to the heavier branch"
    (hex (Block.hash b3))
    (hex (Store.tip_hash store_a));
  (* Fresh store that never reorged. *)
  let store_c = mk_store () in
  List.iter (fun b -> ignore (Store.add_block store_c b : Store.add_result)) [ b1; b2; b3 ];
  ( digest_loser,
    hex (Ledger.state_digest (Store.ledger store_a)),
    hex (Ledger.state_digest (Store.ledger store_c)) )

let test_reorg_differential () =
  let _, a_on, c_on = reorg_digests ~nonce0:100L () in
  Alcotest.(check string) "reorged store == fresh store (memo on)" c_on a_on;
  let _, a_off, c_off = memo_off (fun () -> reorg_digests ~nonce0:200L ()) in
  Alcotest.(check string) "reorged store == fresh store (memo off)" c_off a_off;
  Alcotest.(check string) "memo on == memo off" a_on a_off

(* --- Chaos sweeps: jobs x memo byte-identity ------------------------- *)

let summary_render (s : Runner.summary) =
  Fmt.str "%a" Runner.pp_summary s ^ "\n" ^ Json.to_string (Metrics.to_json s.Runner.obs.Obs.metrics)

(* The summary AND the metrics JSON must not depend on --jobs. *)
let test_sweep_jobs_differential () =
  let sweep ~jobs = summary_render (Runner.sweep ~jobs ~seed:1 ~runs:2 ()) in
  let base = sweep ~jobs:1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "sweep(jobs=%d) == sweep(jobs=1)" jobs)
        true
        (String.equal base (sweep ~jobs)))
    [ 2; 4 ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus_dir =
  if Sys.file_exists "chaos_corpus" then "chaos_corpus" else Filename.concat "test" "chaos_corpus"

(* Replay the committed chaos corpus with memoization on and off: the
   rendered verdicts must be byte-identical, and both must match the
   recorded expectations. *)
let test_corpus_replay_memo_differential () =
  let path = Filename.concat corpus_dir "supply_chain_static_t001.json" in
  let repro = Repro.of_string (read_file path) in
  let render () =
    let results = Repro.replay repro in
    Alcotest.(check bool) (path ^ " replays to its recorded verdicts") true
      (Repro.replay_ok results);
    String.concat "\n" (List.map (Fmt.str "%a" Repro.pp_replay_result) results)
  in
  let with_memo = render () in
  let without_memo = memo_off render in
  Alcotest.(check string) "corpus replay: memo on == memo off" without_memo with_memo

let () =
  Alcotest.run "fast"
    [
      ("engine-differential", [ QCheck_alcotest.to_alcotest qcheck_engine_differential ]);
      ( "digest-memoization",
        [
          QCheck_alcotest.to_alcotest qcheck_tx_ids_fixed_at_construction;
          QCheck_alcotest.to_alcotest qcheck_merkle_memo_differential;
          QCheck_alcotest.to_alcotest qcheck_verify_memo_differential;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "foreign witness: new txid, same sighash" `Quick
            test_foreign_witness_new_txid;
          Alcotest.test_case "foreign-witness tx: new merkle root" `Quick
            test_foreign_witness_new_root;
          Alcotest.test_case "block hash differential" `Quick test_block_hash_memo_differential;
        ] );
      ( "ledger-differential",
        [ Alcotest.test_case "incremental reorg == from-scratch" `Quick test_reorg_differential ] );
      ( "sweep-differential",
        [
          Alcotest.test_case "jobs byte-identity" `Slow test_sweep_jobs_differential;
          Alcotest.test_case "corpus replay memo on/off" `Slow
            test_corpus_replay_memo_differential;
        ] );
    ]
