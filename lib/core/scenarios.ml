(* Canned scenarios: universes and transaction graphs used by the
   examples, tests, and benchmarks.

   All scenario chains share a block interval and confirmation depth so
   the uniform Δ of the paper's analysis applies; experiments scale the
   interval to trade realism against simulation speed. *)

module Keys = Ac3_crypto.Keys
module Ac2t = Ac3_contract.Ac2t
open Ac3_chain

let funding = Amount.of_int 50_000_000

(* Identities for up to [n] participants: alice, bob, carol, dave, ... *)
let participant_names =
  [|
    "alice"; "bob"; "carol"; "dave"; "erin"; "frank"; "grace"; "heidi"; "ivan"; "judy";
    "kevin"; "laura"; "mallory"; "nina"; "oscar"; "peggy";
  |]

let max_identities = Array.length participant_names

(* [ns] namespaces the identities: every run that must not share (and
   exhaust) MSS signing keys with other runs passes its own namespace. *)
let identities ?(ns = "") ?(fresh = false) n =
  if n > max_identities then invalid_arg "Scenarios.identities: too many";
  let make = if fresh then Keys.fresh ?height:None else Keys.create ?height:None in
  List.init n (fun i ->
      let name = participant_names.(i) in
      make (if ns = "" then name else ns ^ ":" ^ name))

(* A fast generic chain for protocol experiments. *)
let chain_params ?(block_interval = 10.0) ?(confirm_depth = 4) ?(regular_blocks = false) ~premine
    name =
  Params.make name ~symbol:(String.uppercase_ascii name) ~block_interval ~pow_bits:8
    ~block_capacity:100 ~confirm_depth ~premine ~regular_blocks

(* Build a universe with [chains] asset chains plus a witness chain, all
   funding every listed identity. Returns (universe, participants). *)
let make_universe ?(seed = 7) ?(block_interval = 10.0) ?(confirm_depth = 4) ?(nodes = 2)
    ?(regular_blocks = false) ?instrument ~chains ids () =
  let u = Universe.create ~seed ?instrument () in
  let premine = List.map (fun id -> (Keys.address id, funding)) ids in
  let all_chains = chains @ [ "witness" ] in
  List.iter
    (fun name ->
      ignore
        (Universe.add_chain ~nodes u
           (chain_params ~block_interval ~confirm_depth ~regular_blocks ~premine name)))
    all_chains;
  let participants =
    List.map (fun id -> Participant.create u ~identity:id ~chains:all_chains) ids
  in
  (u, participants)

(* --- Graphs -------------------------------------------------------------- *)

let amount_of i = Amount.of_int ((i + 1) * 10_000)

(* The paper's running example (Figure 4): Alice swaps X on chain 1 for
   Bob's Y on chain 2. *)
let two_party_graph ~chain1 ~chain2 ids ~timestamp =
  match ids with
  | [ a; b ] ->
      Ac2t.create
        ~edges:
          [
            { Ac2t.from_pk = Keys.public a; to_pk = Keys.public b; amount = amount_of 0; chain = chain1 };
            { Ac2t.from_pk = Keys.public b; to_pk = Keys.public a; amount = amount_of 1; chain = chain2 };
          ]
        ~timestamp
  | _ -> invalid_arg "two_party_graph: exactly two identities"

(* Ring of n participants: vertex i pays vertex (i+1) mod n, each on its
   own chain. Diam(D) = n, which drives the Fig 10 latency sweep. *)
let ring_graph ~chains ids ~timestamp =
  let n = List.length ids in
  if List.length chains <> n then invalid_arg "ring_graph: need one chain per participant";
  let arr = Array.of_list ids in
  let edges =
    List.mapi
      (fun i chain ->
        {
          Ac2t.from_pk = Keys.public arr.(i);
          to_pk = Keys.public arr.((i + 1) mod n);
          amount = amount_of i;
          chain;
        })
      chains
  in
  Ac2t.create ~edges ~timestamp

(* Figure 7a: a cyclic graph that remains cyclic after removing any
   single vertex — beyond both Nolan's and Herlihy's single-leader
   protocols. Three participants, two interleaved 3-cycles. *)
let cyclic_graph ~chains ids ~timestamp =
  match (ids, chains) with
  | [ a; b; c ], [ c1; c2; c3 ] ->
      let pk = Keys.public in
      Ac2t.create
        ~edges:
          [
            { Ac2t.from_pk = pk a; to_pk = pk b; amount = amount_of 0; chain = c1 };
            { Ac2t.from_pk = pk b; to_pk = pk c; amount = amount_of 1; chain = c2 };
            { Ac2t.from_pk = pk c; to_pk = pk a; amount = amount_of 2; chain = c3 };
            { Ac2t.from_pk = pk b; to_pk = pk a; amount = amount_of 3; chain = c1 };
            { Ac2t.from_pk = pk c; to_pk = pk b; amount = amount_of 4; chain = c2 };
            { Ac2t.from_pk = pk a; to_pk = pk c; amount = amount_of 5; chain = c3 };
          ]
        ~timestamp
  | _ -> invalid_arg "cyclic_graph: three identities, three chains"

(* Figure 7b: a disconnected graph — two independent swaps that the
   participants nevertheless want to commit atomically as one AC2T. *)
let disconnected_graph ~chains ids ~timestamp =
  match (ids, chains) with
  | [ a; b; c; d ], [ c1; c2; c3; c4 ] ->
      let pk = Keys.public in
      Ac2t.create
        ~edges:
          [
            { Ac2t.from_pk = pk a; to_pk = pk b; amount = amount_of 0; chain = c1 };
            { Ac2t.from_pk = pk b; to_pk = pk a; amount = amount_of 1; chain = c2 };
            { Ac2t.from_pk = pk c; to_pk = pk d; amount = amount_of 2; chain = c3 };
            { Ac2t.from_pk = pk d; to_pk = pk c; amount = amount_of 3; chain = c4 };
          ]
        ~timestamp
  | _ -> invalid_arg "disconnected_graph: four identities, four chains"

(* A supply-chain style DAG: a manufacturer pays a supplier and a carrier;
   the buyer pays the manufacturer; title transfers hop along. *)
let supply_chain_graph ~chains ids ~timestamp =
  match (ids, chains) with
  | [ buyer; manufacturer; supplier; carrier ], [ c1; c2; c3 ] ->
      let pk = Keys.public in
      Ac2t.create
        ~edges:
          [
            { Ac2t.from_pk = pk buyer; to_pk = pk manufacturer; amount = amount_of 5; chain = c1 };
            { Ac2t.from_pk = pk manufacturer; to_pk = pk supplier; amount = amount_of 2; chain = c2 };
            { Ac2t.from_pk = pk manufacturer; to_pk = pk carrier; amount = amount_of 1; chain = c3 };
            { Ac2t.from_pk = pk supplier; to_pk = pk buyer; amount = amount_of 0; chain = c2 };
          ]
        ~timestamp
  | _ -> invalid_arg "supply_chain_graph: four identities, three chains"
