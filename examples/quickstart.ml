(* Quickstart: the paper's running example (Figure 4).

   Alice owns X "bitcoins" and wants Bob's Y "ethers". We spin up two
   asset blockchains plus a witness network, and commit the swap with
   AC3WN: either both legs happen or neither does — with no trusted
   intermediary and no timelocks to miss.

     dune exec examples/quickstart.exe *)

module U = Ac3_core.Universe
module S = Ac3_core.Scenarios
module A = Ac3_core.Ac3wn
module P = Ac3_core.Participant
open Ac3_chain

let () =
  Fmt.pr "=== AC3WN quickstart: Alice swaps BTC for Bob's ETH ===@.@.";
  (* 1. A deterministic cross-chain universe: two asset chains and one
     witness chain, each a little PoW blockchain with its own miners and
     gossip network. *)
  let ids = S.identities 2 in
  let universe, participants = S.make_universe ~seed:2026 ~chains:[ "btc"; "eth" ] ids () in
  let alice = List.nth participants 0 and bob = List.nth participants 1 in
  (* Let the chains mine a few blocks so everyone has confirmed funds. *)
  U.run_until universe 100.0;
  Fmt.pr "Chains running: %a@." Fmt.(list ~sep:comma string) (U.chain_ids universe);
  Fmt.pr "Alice on btc: %a   Bob on eth: %a@.@." Amount.pp (P.balance_on alice "btc") Amount.pp
    (P.balance_on bob "eth");

  (* 2. The AC2T graph of Figure 4: Alice -> Bob on btc, Bob -> Alice on
     eth. Both participants multisign it inside the protocol. *)
  let graph = S.two_party_graph ~chain1:"btc" ~chain2:"eth" ids ~timestamp:(U.now universe) in
  Fmt.pr "AC2T graph: %a@." Ac3_contract.Ac2t.pp graph;
  Fmt.pr "Diam(D) = %d@.@." (Ac3_contract.Ac2t.diameter graph);

  (* 3. Execute AC3WN: register SCw on the witness chain, deploy both
     swap contracts in parallel, authorize redemption with cross-chain
     evidence, and redeem both legs in parallel. *)
  let before_alice_eth = P.balance_on alice "eth" in
  let before_bob_btc = P.balance_on bob "btc" in
  let result = A.execute universe ~timeout:10_000.0 ~graph ~participants () |> Result.fold ~ok:Fun.id ~error:failwith in

  (* 4. Inspect the outcome. *)
  Fmt.pr "Protocol trace:@.%a@." (Ac3_sim.Trace.pp Ac3_flow.Protocol.pp_event) result.A.trace;
  Fmt.pr "committed = %b, atomic = %b@." result.A.committed result.A.atomic;
  (match result.A.latency with
  | Some l ->
      Fmt.pr "latency: %.1f virtual seconds (Δ = %.1f s => %.2f Δ)@." l (U.max_delta universe)
        (l /. U.max_delta universe)
  | None -> Fmt.pr "did not complete@.");
  Fmt.pr "@.Balances moved:@.";
  Fmt.pr "  Alice gained on eth: %a@." Amount.pp
    Amount.(P.balance_on alice "eth" - before_alice_eth);
  Fmt.pr "  Bob gained on btc:   %a@." Amount.pp Amount.(P.balance_on bob "btc" - before_bob_btc);
  Fmt.pr "@.Total fees paid: %a (SCw deploy + %d edge deploys + 1 call + %d redeems)@."
    Amount.pp (A.total_fees result)
    (List.length (Ac3_contract.Ac2t.edges graph))
    (List.length (Ac3_contract.Ac2t.edges graph));
  if not result.A.atomic then exit 1
