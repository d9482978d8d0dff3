(* Experiment harness: one function per table/figure of the paper's
   evaluation, each returning structured rows that `ac3 analyze` prints
   next to the paper's expected values. Experiment ids follow DESIGN.md
   (E1..E11, A1, A2). *)

module Engine = Ac3_sim.Engine
module Trace = Ac3_sim.Trace
module Keys = Ac3_crypto.Keys
module Ac2t = Ac3_contract.Ac2t
module Evidence = Ac3_contract.Evidence
module Protocol = Ac3_flow.Protocol
open Ac3_chain

(* Chains used by the latency/cost experiments: uniform Δ across chains,
   as in the paper's analysis. *)
let block_interval = 5.0

let confirm_depth = 3

let delta = float_of_int confirm_depth *. block_interval

(* Every run below but Fig 7's Herlihy uses a graph its protocol always
   accepts, so a refusal is a harness bug. *)
let get = function Ok r -> r | Error e -> failwith e

let ac3wn_config =
  {
    Ac3wn.default_config with
    Ac3wn.decision_depth = confirm_depth;
    timeout = 30_000.0;
  }

(* Every experiment starts here: the experiment chains plus the witness
   chain, funding [ids] on all of them, mined for 60 s. *)
let warm_universe ~seed ?regular_blocks ~chains ids =
  let u, participants =
    Scenarios.make_universe ~seed ~block_interval ~confirm_depth ?regular_blocks ~chains ids ()
  in
  Universe.run_until u 60.0;
  (u, participants)

let ring_setup ~seed n =
  (* Fresh identities per run so MSS signing keys are never exhausted by
     repeated runs; regular block production matches the deterministic Δ
     of the paper's latency model. *)
  let ids = Scenarios.identities ~ns:(Printf.sprintf "exp%d" seed) n in
  let chains = List.init n (fun i -> Printf.sprintf "chain%d" i) in
  let u, participants = warm_universe ~seed ~regular_blocks:true ~chains ids in
  let graph = Scenarios.ring_graph ~chains ids ~timestamp:(Universe.now u) in
  (u, participants, graph)

let herlihy_config =
  { (Herlihy.default_config ~delta) with Herlihy.timeout = 100_000.0; poll_interval = 1.0 }

(* One run of [protocol] on a fresh [n]-ring: the E1-E4 and A2 rows. *)
let ring_run ~seed n protocol : Driver.result =
  let u, participants, graph = ring_setup ~seed n in
  get
    (match protocol with
    | `Herlihy -> Herlihy.execute u ~config:herlihy_config ~graph ~participants ()
    | `Ac3wn config -> Ac3wn.execute u ~config ~graph ~participants ())

(* --- E1 / Fig 8: Herlihy phase timeline --------------------------------- *)

type timeline = { protocol : string; diam : int; events : (Protocol.event * float) list }

(* Normalized event times (in Δ units from protocol start). *)
let normalize trace =
  match Trace.time_of trace Protocol.Start with
  | None -> []
  | Some t0 ->
      List.filter_map
        (fun (r : _ Trace.record) ->
          match r.Trace.event with
          | Protocol.Start -> None
          | e -> Some (e, (r.Trace.time -. t0) /. delta))
        (Trace.records trace)

let timeline ~seed ~name protocol =
  let r = ring_run ~seed 3 protocol in
  { protocol = name; diam = Ac2t.diameter r.Driver.graph; events = normalize r.Driver.trace }

let fig8 () = timeline ~seed:81 ~name:"Herlihy (single leader)" `Herlihy

(* --- E2 / Fig 9: AC3WN phase timeline ------------------------------------- *)

let fig9 () =
  timeline ~seed:91 ~name:"AC3WN" (`Ac3wn { ac3wn_config with Ac3wn.poll_interval = 1.0 })

(* --- E3 / Fig 10: latency vs Diam(D) --------------------------------------- *)

type latency_row = {
  diam : int;
  herlihy_model : float; (* 2*Diam, in Δ *)
  ac3wn_model : float; (* 4, in Δ *)
  herlihy_measured : float option; (* measured, in Δ *)
  ac3wn_measured : float option;
}

let fig10 () =
  List.init 5 (fun i ->
      let n = i + 2 in
      let measured seed protocol =
        let r = ring_run ~seed n protocol in
        if not r.Driver.committed then failwith (Printf.sprintf "ring-%d run did not commit" n);
        Option.map (fun l -> l /. delta) r.Driver.latency
      in
      {
        diam = n;
        herlihy_model = Analysis.herlihy_latency ~diam:n;
        ac3wn_model = Analysis.ac3wn_latency;
        herlihy_measured = measured (103 + (10 * n)) `Herlihy;
        ac3wn_measured = measured (104 + (10 * n)) (`Ac3wn ac3wn_config);
      })

(* --- E4 / Sec 6.2: cost overhead --------------------------------------------- *)

type cost_row = {
  n_contracts : int;
  herlihy_fee : int64; (* measured, chain units *)
  ac3wn_fee : int64;
  overhead_measured : float;
  overhead_model : float; (* 1/N *)
}

let cost_table () =
  List.map
    (fun n ->
      let fee seed protocol = Amount.to_int64 (Driver.total_fees (ring_run ~seed n protocol)) in
      let herlihy_fee = fee (400 + n) `Herlihy in
      let ac3wn_fee = fee (500 + n) (`Ac3wn ac3wn_config) in
      {
        n_contracts = n;
        herlihy_fee;
        ac3wn_fee;
        overhead_measured =
          Int64.to_float (Int64.sub ac3wn_fee herlihy_fee) /. Int64.to_float herlihy_fee;
        overhead_model = Analysis.cost_overhead_ratio ~n;
      })
    [ 2; 3; 4; 5 ]

(* --- E5 / Sec 6.3: witness choice, required depth, 51% attacks ---------------- *)

type depth_row = { va : float; required_d : int }

let depth_table () =
  List.map
    (fun va -> { va; required_d = Analysis.required_depth ~va ~dh:6.0 ~ch:300_000.0 })
    [ 10_000.0; 100_000.0; 1_000_000.0; 5_000_000.0; 10_000_000.0 ]

let attack_table () =
  Attack.depth_sweep_par ~seed:500 ~q:0.3 ~depths:[ 0; 1; 2; 4; 6; 10 ] ~block_interval:600.0
    ~trials:300 ~cost_per_hour:300_000.0 ()

(* --- E6 / Table 1 + Sec 6.4: throughput ----------------------------------------- *)

type tps_row = {
  chain : string;
  paper_tps : float;
  configured_tps : float; (* capacity / interval of our preset *)
  measured_tps : float; (* measured on the simulator under saturation *)
}

(* Measure a chain's sustained throughput: premine many UTXOs, flood the
   mempool with 1-in-1-out transfers, mine two blocks directly, and
   divide included transactions by elapsed block time. Signature checks
   are disabled (the knob exists for exactly this stress test); the
   binding constraint is capacity/interval, as on the real networks. *)
let measure_tps params =
  let blocks = 2 in
  let spender = Keys.create "tps-spender" in
  let n_txs = params.Params.block_capacity * blocks in
  let premine = List.init n_txs (fun _ -> (Keys.address spender, Amount.of_int 1_000_000)) in
  let params = { params with Params.verify_signatures = false; premine } in
  let registry = Ac3_contract.Registry.standard () in
  let store = Store.create ~params ~registry in
  let genesis_cb = List.hd (Store.genesis store).Block.txs in
  let cb_txid = Tx.txid genesis_cb in
  let fee = params.Params.transfer_fee in
  let txs =
    List.init n_txs (fun i ->
        Tx.make_unsigned ~chain:params.Params.chain_id
          ~inputs:[ (Outpoint.create ~txid:cb_txid ~index:i, spender) ]
          ~outputs:
            [ { Tx.addr = Keys.address spender; amount = Amount.(Amount.of_int 1_000_000 - fee) } ]
          ~fee ~nonce:(Int64.of_int i) ())
  in
  let remaining = ref txs in
  let included = ref 0 in
  for b = 1 to blocks do
    let parent = Store.tip store in
    let height = parent.Block.header.Block.height + 1 in
    let time = float_of_int b *. params.Params.block_interval in
    let rec split n acc rest =
      if n = 0 then (List.rev acc, rest)
      else match rest with [] -> (List.rev acc, []) | x :: r -> split (n - 1) (x :: acc) r
    in
    let candidates, rest = split params.Params.block_capacity [] !remaining in
    remaining := rest;
    let selected =
      Ledger.select_valid (Store.ledger store) ~block_height:height ~block_time:time candidates
    in
    let block = Miner.block ~params ~parent ~time ~miner_addr:(Keys.address spender) selected in
    (match Store.add_block store block with
    | Store.Added _ -> included := !included + List.length selected
    | _ -> failwith "tps block rejected")
  done;
  float_of_int !included /. (float_of_int blocks *. params.Params.block_interval)

let table1 () =
  List.map
    (fun (name, paper_tps, params) ->
      {
        chain = name;
        paper_tps;
        configured_tps = Params.tps params;
        measured_tps = measure_tps params;
      })
    [
      ("Bitcoin", 7.0, Params.bitcoin ());
      ("Ethereum", 25.0, Params.ethereum ());
      ("Litecoin", 56.0, Params.litecoin ());
      ("Bitcoin Cash", 61.0, Params.bitcoin_cash ());
    ]

type combo_row = { chains : string list; witness : string; expected_min : float }

let throughput_combos () =
  let tps name = List.assoc name Analysis.table1 in
  List.map
    (fun (chains, witness) ->
      {
        chains;
        witness;
        expected_min = Analysis.ac2t_throughput (tps witness :: List.map tps chains);
      })
    [
      ([ "Ethereum"; "Litecoin" ], "Bitcoin");
      ([ "Ethereum"; "Litecoin" ], "Litecoin");
      ([ "Litecoin"; "Bitcoin Cash" ], "Bitcoin Cash");
      ([ "Bitcoin"; "Ethereum" ], "Ethereum");
    ]

(* --- E7 / Fig 7: complex graphs -------------------------------------------------- *)

type fig7_row = {
  name : string;
  shape : Ac2t.shape;
  herlihy_verdict : string;
  ac3wn_committed : bool;
  ac3wn_atomic : bool;
}

let fig7 () =
  (* One participant per chain; [graph_of] is a Scenarios graph. *)
  let run_shape ~seed ~name ~chains graph_of =
    let ids = Scenarios.identities ~ns:(Printf.sprintf "fig7-%d" seed) (List.length chains) in
    let u, participants = warm_universe ~seed ~chains ids in
    let graph = graph_of ~chains ids ~timestamp:(Universe.now u) in
    let herlihy_verdict =
      let config = Herlihy.default_config ~delta in
      match Herlihy.execute u ~config ~graph ~participants () with
      | Error e -> "refused: " ^ e
      | Ok _ -> "executable"
    in
    let r = Ac3wn.execute u ~config:ac3wn_config ~graph ~participants () |> get in
    {
      name;
      shape = Ac2t.classify graph;
      herlihy_verdict;
      ac3wn_committed = r.Ac3wn.committed;
      ac3wn_atomic = r.Ac3wn.atomic;
    }
  in
  [
    run_shape ~seed:700 ~name:"Fig 7a cyclic" ~chains:[ "c1"; "c2"; "c3" ] Scenarios.cyclic_graph;
    run_shape ~seed:701 ~name:"Fig 7b disconnected" ~chains:[ "c1"; "c2"; "c3"; "c4" ]
      Scenarios.disconnected_graph;
  ]

(* --- E8 / Sec 1: crash failures ---------------------------------------------------- *)

type crash_row = { protocol : string; outcome : string; atomic : bool }

(* Both runs are a two-party swap on btc/eth after the warm-up. *)
let two_party ~seed ids =
  let u, participants = warm_universe ~seed ~chains:[ "btc"; "eth" ] ids in
  let graph = Scenarios.two_party_graph ~chain1:"btc" ~chain2:"eth" ids ~timestamp:(Universe.now u) in
  (u, participants, graph)

let crash_experiment () =
  let ids = Scenarios.identities ~ns:"crash800" 2 in
  (* Nolan: Bob crashes as the secret is revealed and never recovers. *)
  let nolan_row =
    let u, participants, graph = two_party ~seed:800 ids in
    let bob = List.nth participants 1 in
    let hooks = [ (Protocol.Redeem 1, fun () -> Participant.crash bob) ] in
    let config = { (Herlihy.default_config ~delta) with Herlihy.timeout = 5000.0 } in
    let r = Nolan.execute u ~config ~graph ~participants ~hooks () |> get in
    {
      protocol = "Nolan (hashlock/timelock)";
      outcome = Fmt.str "%a" Outcome.pp r.Herlihy.outcome;
      atomic = r.Herlihy.atomic;
    }
  in
  (* AC3WN: same crash point, recovery after 600 s. *)
  let ac3wn_row =
    let u, participants, graph = two_party ~seed:801 ids in
    let bob = List.nth participants 1 in
    let hooks =
      [
        ( Protocol.Authorize_submitted Protocol.Commit,
          fun () ->
            Participant.crash bob;
            Engine.schedule (Universe.engine u) ~delay:600.0 (fun () -> Participant.recover bob) );
      ]
    in
    let r = Ac3wn.execute u ~config:ac3wn_config ~graph ~participants ~hooks () |> get in
    {
      protocol = "AC3WN (witness network)";
      outcome = Fmt.str "%a" Outcome.pp r.Ac3wn.outcome;
      atomic = r.Ac3wn.atomic;
    }
  in
  [ nolan_row; ac3wn_row ]

(* --- E9 / Lemma 5.3: forks in the witness network ----------------------------------- *)

type fork_row = {
  d : int;
  trials : int;
  conflicting_decisions_buried : int; (* both RDauth & RFauth at depth d *)
  rate : float;
}

(* One trial: set up a real AC3WN SCw on a two-node witness chain,
   partition the witness network, feed authorize_redeem to one side and
   authorize_refund to the other, and after [window] seconds check
   whether BOTH conflicting decisions are buried at depth >= d on their
   respective sides — the precondition for an atomicity violation. The
   paper's Lemma 5.3 says this probability is the (small) fork
   probability ε; it decays rapidly with d. *)
let fork_trial ~seed ~d ~window =
  let ids = Scenarios.identities ~ns:(Printf.sprintf "fork%d" seed) 2 in
  let u, _participants = warm_universe ~seed ~chains:[ "asset" ] ids in
  let alice = List.nth ids 0 and bob = List.nth ids 1 in
  (* Register SCw directly (we drive the contract by hand here). *)
  let graph =
    Ac2t.create
      ~edges:
        [
          {
            Ac2t.from_pk = Keys.public alice;
            to_pk = Keys.public bob;
            amount = Amount.of_int 10_000;
            chain = "asset";
          };
        ]
      ~timestamp:(Universe.now u)
  in
  let ms = Ac2t.multisign graph ids in
  let witness = Universe.chain u Ac3wn.witness_chain in
  let asset_node = Universe.gateway u "asset" in
  let w_alice = Wallet.create ~identity:alice ~node:witness.Universe.nodes.(0) in
  let w_bob = Wallet.create ~identity:bob ~node:witness.Universe.nodes.(1) in
  let asset_wallet = Wallet.create ~identity:alice ~node:asset_node in
  let checkpoints = [ ("asset", Universe.stable_checkpoint u "asset") ] in
  let scw_args = Ac3_contract.Witness_sc.args ~graph ~ms ~checkpoints ~evidence_depth:1 in
  match
    Wallet.deploy w_alice ~code_id:Ac3_contract.Witness_sc.code_id
      ~args:(fun () -> scw_args)
      ~deposit:Amount.zero
  with
  | Error e -> failwith (Wallet.refusal_message e)
  | Ok (_scw_txid, scw) -> (
      (* Deploy the edge contract and bury it. *)
      let edge_args =
        Ac3_contract.Permissionless_sc.args ~recipient_pk:(Keys.public bob) ~witness_chain:Ac3wn.witness_chain
          ~scw ~depth:d ~witness_checkpoint:(Universe.stable_checkpoint u Ac3wn.witness_chain)
      in
      match
        Wallet.deploy asset_wallet ~code_id:Ac3_contract.Permissionless_sc.code_id
          ~args:(fun () -> edge_args)
          ~deposit:(Amount.of_int 10_000)
      with
      | Error e -> failwith (Wallet.refusal_message e)
      | Ok (edge_txid, _edge_contract) ->
          let ok =
            Universe.run_while u ~timeout:2000.0 (fun () ->
                Node.confirmations asset_node edge_txid > 1
                && Node.contract witness.Universe.nodes.(0) scw <> None
                && Node.contract witness.Universe.nodes.(1) scw <> None)
          in
          if not ok then failwith "fork trial setup timed out";
          (* Partition the witness network, one miner on each side. *)
          let side0 = Node.id witness.Universe.nodes.(0) in
          let side1 = Node.id witness.Universe.nodes.(1) in
          Network.partition witness.Universe.network [ [ side0 ]; [ side1 ] ];
          (* Side 0 authorizes redeem (with evidence); side 1 refund. *)
          let state =
            match Node.contract witness.Universe.nodes.(0) scw with
            | Some c -> c.Ledger.state
            | None -> failwith "scw missing"
          in
          let checkpoint =
            match Ac3_contract.Witness_sc.checkpoint_for state "asset" with
            | Ok cp -> cp
            | Error e -> failwith e
          in
          let evidence =
            match Evidence.build ~store:(Node.store asset_node) ~checkpoint ~txid:edge_txid with
            | Ok ev -> ev
            | Error e -> failwith e
          in
          let r1 =
            Wallet.call w_alice ~contract_id:scw ~fn:"authorize_redeem"
              ~args:(fun () -> Ok (Value.List [ Evidence.to_value evidence ]))
              ()
          in
          let r2 =
            Wallet.call w_bob ~contract_id:scw ~fn:"authorize_refund" ~args:(fun () -> Ok Value.Unit) ()
          in
          (match (r1, r2) with
          | Ok _, Ok _ -> ()
          | Error e, _ | _, Error e -> failwith ("fork trial submission failed: " ^ Wallet.refusal_message e));
          Universe.run_until u (Universe.now u +. window);
          (* Did each side bury its own decision at depth >= d? *)
          let buried node fn =
            match
              Store.find_call (Node.store node) ~contract_id:scw ~fn
            with
            | Some (txid, _) -> Node.confirmations node txid > d
            | None -> false
          in
          let conflict =
            buried witness.Universe.nodes.(0) "authorize_redeem"
            && buried witness.Universe.nodes.(1) "authorize_refund"
          in
          Network.heal witness.Universe.network;
          conflict)

let fork_table () =
  let trials = 8 in
  List.map
    (fun d ->
      let hits =
        List.length
          (List.filter Fun.id
             (List.init trials (fun k -> fork_trial ~seed:(900 + (100 * d) + k) ~d ~window:60.0)))
      in
      {
        d;
        trials;
        conflicting_decisions_buried = hits;
        rate = float_of_int hits /. float_of_int trials;
      })
    [ 0; 1; 2; 4; 8 ]

(* --- A1 / Sec 4.3 ablation: evidence validation strategies --------------------------- *)

type evidence_row = {
  headers_spanned : int;
  bundle_bytes : int;
  in_contract_hashes : int; (* hash computations per verification *)
  spv_hashes : int;
  full_replica_hashes : int;
}

let evidence_ablation () =
  let spans = [ 4; 16; 64 ] in
  (* Build one chain long enough for the largest span. *)
  let who = Keys.create "evidence-ablation" in
  let params =
    Params.make "abl" ~pow_bits:6 ~confirm_depth:2
      ~premine:[ (Keys.address who, Amount.of_int 10_000_000) ]
  in
  let registry = Ac3_contract.Registry.standard () in
  let store = Store.create ~params ~registry in
  let mine txs =
    let parent = Store.tip store in
    let time = float_of_int (parent.Block.header.Block.height + 1) in
    let b = Miner.block ~params ~parent ~time ~miner_addr:(Keys.address who) txs in
    ignore (Store.add_block store b);
    b
  in
  (* The transaction of interest sits right after genesis. *)
  let ledger = Store.ledger store in
  let op, (o : Tx.output) = List.hd (Ledger.utxos_of ledger (Keys.address who)) in
  let tx =
    Tx.make ~chain:"abl" ~inputs:[ (op, who) ]
      ~outputs:[ { Tx.addr = Keys.address who; amount = Amount.(o.amount - params.Params.transfer_fee) } ]
      ~fee:params.Params.transfer_fee ~nonce:1L ()
  in
  let tx_block = mine [ tx ] in
  for _ = 1 to List.fold_left max 0 spans do
    ignore (mine [])
  done;
  let checkpoint = (Store.genesis store).Block.header in
  let txid = Tx.txid tx in
  let spv = Spv.create ~genesis_header:(Store.genesis store).Block.header in
  (match Spv.add_headers spv (Store.headers_from store ~from_:1) with
  | Ok () -> ()
  | Error e -> failwith e);
  let index = match Store.find_tx store txid with Some (_, i) -> i | None -> failwith "?" in
  let proof = Block.tx_proof tx_block index in
  let valid what = function Ok _ -> () | Error e -> failwith (what ^ " rejected: " ^ e) in
  List.map
    (fun span ->
      (* Truncate the evidence to [span] headers by rebuilding against a
         bundle covering exactly the first span blocks. *)
      let ev =
        match Evidence.build ~store ~checkpoint ~txid with
        | Ok ev ->
            let headers = List.filteri (fun i _ -> i < span) ev.Evidence.headers in
            { ev with Evidence.headers }
        | Error e -> failwith e
      in
      let depth = span - 1 in
      valid "in-contract evidence" (Evidence.verify ~checkpoint ~depth ev);
      valid "SPV proof"
        (Evidence.verify_by_light_client ~spv ~header_hash:(Block.hash tx_block) ~txid ~proof ~depth);
      valid "full replica" (Evidence.verify_by_full_replication ~replica:store ~txid ~depth);
      let merkle_path = List.length ev.Evidence.tx_proof.Ac3_crypto.Merkle.path in
      {
        headers_spanned = span;
        (* The bytes a call carries: the same encoding core.evidence.bytes observes. *)
        bundle_bytes =
          Value.as_bytes (Evidence.to_value ev) |> Result.fold ~ok:String.length ~error:(fun _ -> 0);
        in_contract_hashes = List.length ev.Evidence.headers + 1 + merkle_path;
        spv_hashes = merkle_path;
        full_replica_hashes = 0;
      })
    spans

(* --- E10 / Sec 5.2: scalability via independent witness networks --------- *)

type scalability_row = {
  concurrent : int; (* number of concurrent AC2Ts *)
  shared_witness : bool;
  all_committed : bool;
  mean_latency_delta : float; (* mean latency across the AC2Ts, in Δ *)
}

(* Run [k] two-party AC2Ts concurrently in ONE universe. With
   [shared_witness] every transaction is coordinated by the same witness
   blockchain; otherwise each gets its own. Sec 5.2 argues atomicity
   coordination is embarrassingly parallel, so latency should not grow
   with the number of concurrent transactions in either setup (the
   witness chain only carries two small transactions per AC2T). *)
let scalability () =
  let run ~k ~shared_witness seed =
    (* Chains: 2 asset chains per AC2T plus, unless shared, one witness
       chain each (the universe's own witness chain then sits idle).
       AC2T i is between identities 2i and 2i+1. *)
    let asset c i = Printf.sprintf "%c%d" c i in
    let witness_of i =
      if shared_witness then Ac3wn.witness_chain else Printf.sprintf "witness%d" i
    in
    let chains =
      List.concat (List.init k (fun i -> [ asset 'a' i; asset 'b' i ]))
      @ if shared_witness then [] else List.init k witness_of
    in
    let ids = Array.of_list (Scenarios.identities ~ns:(Printf.sprintf "scal%d" seed) (2 * k)) in
    let u, participants = warm_universe ~seed ~regular_blocks:true ~chains (Array.to_list ids) in
    let participants = Array.of_list participants in
    let handles =
      List.init k (fun i ->
          let graph =
            Scenarios.two_party_graph ~chain1:(asset 'a' i) ~chain2:(asset 'b' i)
              [ ids.(2 * i); ids.((2 * i) + 1) ]
              ~timestamp:(Universe.now u +. float_of_int i)
          in
          let config = { ac3wn_config with Ac3wn.witness_chain = witness_of i } in
          Ac3wn.launch u ~config ~graph
            ~participants:[ participants.(2 * i); participants.((2 * i) + 1) ]
            ()
          |> get)
    in
    (* Each AC2T is finished the moment it settles, so its latency is
       its own, not the slowest one's. *)
    let finished = Array.make k None in
    let all_settled () =
      List.iteri
        (fun i h ->
          if Option.is_none finished.(i) && Driver.settled h then
            finished.(i) <- Some (Driver.finish h))
        handles;
      Array.for_all Option.is_some finished
    in
    ignore (Universe.run_while u ~timeout:ac3wn_config.Ac3wn.timeout all_settled : bool);
    let results =
      List.mapi (fun i h -> match finished.(i) with Some r -> r | None -> Driver.finish h) handles
    in
    let latencies =
      List.filter_map (fun (r : Ac3wn.result) -> Option.map (fun l -> l /. delta) r.Ac3wn.latency) results
    in
    {
      concurrent = k;
      shared_witness;
      all_committed = List.for_all (fun (r : Ac3wn.result) -> r.Ac3wn.committed) results;
      mean_latency_delta = Ac3_sim.Stats.mean latencies;
    }
  in
  List.concat_map
    (fun k -> [ run ~k ~shared_witness:true (1000 + k); run ~k ~shared_witness:false (1050 + k) ])
    [ 1; 2; 4 ]

(* --- E11 / Sec 4.2 motivation: witness availability ------------------------- *)

type availability_row = { protocol : string; witness_failure : string; result : string }

(* Trent crashes mid-protocol: AC3TW's assets stay locked until (unless)
   he returns. AC3WN tolerates the crash of any witness-network node. *)
let availability () =
  let tw_row =
    let u, participants, graph = two_party ~seed:1100 (Scenarios.identities ~ns:"avail1100" 2) in
    let trent = Trent.create u ~name:"trent1100" in
    (* Trent goes down shortly after registration — before the contracts
       confirm — and never returns. *)
    Engine.schedule (Universe.engine u) ~delay:5.0 (fun () -> Trent.crash trent);
    let config = { Ac3tw.default_config with Ac3tw.timeout = 1200.0 } in
    match Ac3tw.execute u ~config ~trent ~graph ~participants () with
    | Error e -> { protocol = "AC3TW"; witness_failure = "Trent crashes"; result = "error: " ^ e }
    | Ok r ->
        let locked = not (Outcome.settled r.Ac3tw.outcome) in
        {
          protocol = "AC3TW";
          witness_failure = "Trent crashes";
          result =
            (if r.Ac3tw.committed then "committed"
             else if locked then "STUCK: assets locked, no decision possible"
             else "aborted");
        }
  in
  let wn_row =
    let u, participants, graph =
      two_party ~seed:1101 (Scenarios.identities ~ns:"avail1100-b" 2)
    in
    (* One of the witness-network's nodes crashes at the same point; the
       chain keeps producing blocks and the protocol commits. *)
    let witness = Universe.chain u Ac3wn.witness_chain in
    Engine.schedule (Universe.engine u) ~delay:30.0 (fun () ->
        Node.crash witness.Universe.nodes.(1));
    let r = Ac3wn.execute u ~config:ac3wn_config ~graph ~participants () |> get in
    {
      protocol = "AC3WN";
      witness_failure = "a witness miner crashes";
      result = (if r.Ac3wn.committed then "committed (atomic)" else "did not commit");
    }
  in
  [ tw_row; wn_row ]

(* --- A2 ablation: decision depth d vs latency ------------------------------- *)

type depth_latency_row = { depth : int; committed : bool; latency_delta : float }

(* The safety/latency trade-off of choosing d (Sec 6.3 chooses d for
   safety; this measures what each choice costs): AC3WN latency grows
   linearly in d because the commit decision must be buried under d
   witness blocks before anyone redeems. *)
let depth_latency () =
  List.map
    (fun d ->
      let config = { ac3wn_config with Ac3wn.decision_depth = d; timeout = 60_000.0 } in
      let r = ring_run ~seed:(1300 + d) 2 (`Ac3wn config) in
      {
        depth = d;
        committed = r.Driver.committed;
        latency_delta =
          (match r.Driver.latency with Some l -> l /. delta | None -> Float.nan);
      })
    [ 2; 4; 6; 9 ]
