(* 51% attacks on the witness network (paper Sec 6.3).

   A malicious participant rents hash power to fork the witness chain:
   after the commit decision (SCw -> RDauth) is buried under d blocks and
   counterparties have redeemed, the attacker mines a private branch from
   before the decision containing SCw -> RFauth instead; if the private
   branch overtakes the public one, the longest-chain rule flips the
   decision and the attacker refunds assets that were already redeemed
   elsewhere — the double-spend that depth d must price out.

   [race] simulates the block race abstractly (two Poisson processes);
   [run_reorg_demo] executes a concrete deep reorganization on the real
   chain machinery to show the store flipping a buried decision. *)

module Rng = Ac3_sim.Rng

type race_result = { success : bool; blocks_mined : int; duration_hours : float }

(* One private-fork race. The attacker controls fraction [q] of the total
   hash power and starts when the victim transaction is at depth [d]:
   it must build a branch longer than the public chain's growth from the
   fork point, i.e. overcome a deficit of d + 1 blocks. [give_up] bounds
   the attacker's patience (in attacker blocks mined). *)
let race rng ~q ~d ~block_interval ~give_up =
  if q <= 0.0 || q >= 1.0 then invalid_arg "Attack.race: q must be in (0, 1)";
  let honest_rate = (1.0 -. q) /. block_interval in
  let attacker_rate = q /. block_interval in
  let rec go ~attacker ~honest ~time ~mined =
    (* Attacker branch length vs public branch length from the fork
       point; the attacker wins when strictly longer. *)
    if attacker > honest + d then { success = true; blocks_mined = mined; duration_hours = time /. 3600.0 }
    else if mined >= give_up then
      { success = false; blocks_mined = mined; duration_hours = time /. 3600.0 }
    else begin
      let t_attacker = Rng.exponential rng ~mean:(1.0 /. attacker_rate) in
      let t_honest = Rng.exponential rng ~mean:(1.0 /. honest_rate) in
      if t_attacker < t_honest then
        go ~attacker:(attacker + 1) ~honest ~time:(time +. t_attacker) ~mined:(mined + 1)
      else go ~attacker ~honest:(honest + 1) ~time:(time +. t_honest) ~mined
    end
  in
  go ~attacker:0 ~honest:0 ~time:0.0 ~mined:0

type estimate = {
  q : float;
  d : int;
  trials : int;
  successes : int;
  success_rate : float;
  analytic : float; (* gambler's-ruin bound *)
  mean_cost_usd : float; (* expected rental cost per attempt *)
}

(* Monte-Carlo estimate of attack success probability and cost. *)
let estimate rng ~q ~d ~block_interval ~trials ~cost_per_hour =
  let successes = ref 0 in
  let total_hours = ref 0.0 in
  for _ = 1 to trials do
    let r = race rng ~q ~d ~block_interval ~give_up:(50 * (d + 2)) in
    if r.success then incr successes;
    total_hours := !total_hours +. r.duration_hours
  done;
  {
    q;
    d;
    trials;
    successes = !successes;
    success_rate = float_of_int !successes /. float_of_int trials;
    analytic = Analysis.attack_success_probability ~q ~d;
    mean_cost_usd = !total_hours /. float_of_int trials *. cost_per_hour;
  }

(* Sweep depth d for a fixed adversary share: the empirical counterpart
   of Sec 6.3's d > Va*dh/Ch rule. Every depth derives its own stream
   from Splitmix(seed, depth index), so the estimates are independent
   of both execution order and [jobs], and parallel output is
   bit-identical to sequential. *)
let depth_sweep_par ?(jobs = 1) ~seed ~q ~depths ~block_interval ~trials ~cost_per_hour () =
  Ac3_par.Pool.mapi ~jobs
    (fun i d ->
      let rng = Rng.create (Ac3_par.Pool.split_seed ~root:seed ~index:i) in
      estimate rng ~q ~d ~block_interval ~trials ~cost_per_hour)
    depths

(* --- Concrete reorganization demo ------------------------------------- *)

open Ac3_chain

(* Build a store, mine [public_blocks] on it, then feed a heavier private
   branch forked [fork_depth] blocks back. Returns (tip flipped?, store).
   Demonstrates on real machinery that a buried block is only
   probabilistically final. *)
let run_reorg_demo ~fork_depth () =
  let params =
    Params.make "attack-demo" ~pow_bits:6 ~confirm_depth:fork_depth ~block_capacity:10
  in
  let registry = Contract_iface.create_registry () in
  let store = Store.create ~params ~registry in
  let target = Pow.target_of_bits params.Params.pow_bits in
  let mine_on parent_hash height ~tag =
    let coinbase =
      Tx.coinbase ~chain:"attack-demo" ~height
        ~miner_addr:(Ac3_crypto.Keys.address (Ac3_crypto.Keys.create tag))
        ~reward:params.Params.block_reward
    in
    Block.mine ~chain:"attack-demo" ~height ~parent:parent_hash ~time:(float_of_int height)
      ~target ~txs:[ coinbase ]
  in
  (* Public chain: genesis + fork_depth blocks (the "decision" is in the
     first of them, now buried at depth fork_depth). *)
  let rec extend parent height n tag acc =
    if n = 0 then List.rev acc
    else begin
      let b = mine_on parent height ~tag in
      ignore (Store.add_block store b);
      extend (Block.hash b) (height + 1) (n - 1) tag (b :: acc)
    end
  in
  let public_chain = extend (Store.genesis_hash store) 1 fork_depth "honest-miner" [] in
  let decision_block = List.hd public_chain in
  let tip_before = Store.tip_hash store in
  (* Private branch: one block longer, from genesis. *)
  let _private_chain =
    extend (Store.genesis_hash store) 1 (fork_depth + 1) "attacker-miner" []
  in
  let flipped = not (String.equal (Store.tip_hash store) tip_before) in
  let decision_still_active = Store.is_active store (Block.hash decision_block) in
  (flipped, decision_still_active, store)
