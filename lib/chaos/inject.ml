(* Fault injection: compile a Plan.t into scheduled events against a live
   universe.

   Every fault is installed on the universe's own discrete-event engine,
   so injection shares the single virtual clock and RNG discipline with
   the protocols under test — a chaos run is exactly as deterministic as
   a fault-free one. Each fault firing also records a [Fault] event in
   the universe trace, so reproducer logs show faults interleaved with
   protocol steps. *)

module Engine = Ac3_sim.Engine
module Network = Ac3_chain.Network
module Miner = Ac3_chain.Miner
module Node = Ac3_chain.Node
module Universe = Ac3_core.Universe
module Participant = Ac3_core.Participant

let schedule u ~at thunk =
  if at >= 0.0 then Engine.schedule (Universe.engine u) ~delay:at thunk

(* Plans may reference chains a hand-edited spec does not have; skip
   those faults rather than crashing the harness. *)
let with_chain u name k = match Universe.chain u name with
  | chain -> k chain
  | exception Invalid_argument _ -> ()

(* Every fault firing leaves a trace record and bumps the per-kind hit
   counter. *)
let note u kind attrs =
  Universe.record u ~attrs (Ac3_flow.Protocol.Fault kind);
  Ac3_obs.Metrics.incr
    (Ac3_obs.Metrics.counter (Universe.metrics u) ~labels:[ ("kind", kind) ] "chaos.fault")

let install ~universe:u ~participants (plan : Plan.t) =
  let parts = Array.of_list participants in
  let party i = parts.(i mod Array.length parts) in
  let install_fault = function
    | Plan.Crash { party = i; at } ->
        schedule u ~at (fun () ->
            let p = party i in
            note u "crash" [ ("party", Participant.name p) ];
            Participant.crash p)
    | Plan.Restart { party = i; at } ->
        schedule u ~at (fun () ->
            let p = party i in
            note u "restart" [ ("party", Participant.name p) ];
            Participant.recover p)
    | Plan.Partition { chain; at; duration; cut } ->
        schedule u ~at (fun () ->
            with_chain u chain (fun c ->
                let n = Array.length c.Universe.nodes in
                let cut = max 1 (min (n - 1) cut) in
                let island =
                  Array.to_list (Array.sub c.Universe.nodes 0 cut) |> List.map Node.id
                in
                note u "partition" [ ("chain", chain); ("cut", string_of_int cut) ];
                Network.partition c.Universe.network [ island ]));
        schedule u ~at:(at +. duration) (fun () ->
            with_chain u chain (fun c ->
                note u "heal" [ ("chain", chain) ];
                Network.heal c.Universe.network))
    | Plan.Delay { chain; at; duration; factor } ->
        let saved = ref None in
        schedule u ~at (fun () ->
            with_chain u chain (fun c ->
                let net = c.Universe.network in
                let lo, hi = Network.delays net in
                saved := Some (lo, hi);
                note u "delay"
                  [ ("chain", chain); ("factor", Printf.sprintf "%.1f" factor) ];
                Network.set_delays net ~min_delay:(lo *. factor) ~max_delay:(hi *. factor)));
        schedule u ~at:(at +. duration) (fun () ->
            with_chain u chain (fun c ->
                match !saved with
                | None -> ()
                | Some (lo, hi) ->
                    note u "delay_end" [ ("chain", chain) ];
                    Network.set_delays c.Universe.network ~min_delay:lo ~max_delay:hi))
    | Plan.Drop { chain; at; duration; p } ->
        schedule u ~at (fun () ->
            with_chain u chain (fun c ->
                note u "drop" [ ("chain", chain); ("p", Printf.sprintf "%.2f" p) ];
                Network.set_drop_probability c.Universe.network p));
        schedule u ~at:(at +. duration) (fun () ->
            with_chain u chain (fun c ->
                note u "drop_end" [ ("chain", chain) ];
                Network.set_drop_probability c.Universe.network 0.0))
    | Plan.Mining_stall { chain; at; duration } ->
        schedule u ~at (fun () ->
            with_chain u chain (fun c ->
                note u "mining_stall" [ ("chain", chain) ];
                Array.iter Miner.stop c.Universe.miners));
        schedule u ~at:(at +. duration) (fun () ->
            with_chain u chain (fun c ->
                note u "mining_resume" [ ("chain", chain) ];
                Array.iter Miner.start c.Universe.miners))
    | Plan.Mining_burst { chain; at; blocks } ->
        schedule u ~at (fun () ->
            with_chain u chain (fun c ->
                note u "mining_burst"
                  [ ("chain", chain); ("blocks", string_of_int blocks) ];
                let miners = c.Universe.miners in
                if Array.length miners > 0 then
                  for i = 0 to blocks - 1 do
                    Miner.mine_one miners.(i mod Array.length miners)
                  done))
    | Plan.Witness_outage { at; duration } ->
        schedule u ~at (fun () ->
            with_chain u Ac3_core.Ac3wn.witness_chain (fun c ->
                note u "witness_outage" [];
                Array.iter Miner.stop c.Universe.miners;
                Array.iter Node.crash c.Universe.nodes));
        schedule u ~at:(at +. duration) (fun () ->
            with_chain u Ac3_core.Ac3wn.witness_chain (fun c ->
                note u "witness_recover" [];
                Array.iter Node.recover c.Universe.nodes;
                Array.iter Miner.start c.Universe.miners))
  in
  List.iter install_fault plan
