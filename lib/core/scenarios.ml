(* Canned scenarios: universes and transaction graphs used by the
   examples, tests, and benchmarks.

   All scenario chains share a block interval and confirmation depth so
   the uniform Δ of the paper's analysis applies; experiments scale the
   interval to trade realism against simulation speed. *)

module Keys = Ac3_crypto.Keys
module Ac2t = Ac3_contract.Ac2t
open Ac3_chain

(* Genesis funding per identity per chain. *)
let funding = Amount.of_int 50_000_000

(* Identities for up to [n] participants: alice, bob, carol, dave, ... *)
let participant_names =
  [|
    "alice"; "bob"; "carol"; "dave"; "erin"; "frank"; "grace"; "heidi"; "ivan"; "judy";
    "kevin"; "laura"; "mallory"; "nina"; "oscar"; "peggy";
  |]

let max_identities = Array.length participant_names

(* [ns] namespaces the identities' labels; each identity has its own
   full signature budget whatever its label. *)
let identities ?(ns = "") n =
  if n > max_identities then invalid_arg "Scenarios.identities: too many";
  List.init n (fun i ->
      let name = participant_names.(i) in
      Keys.create (if ns = "" then name else ns ^ ":" ^ name))

(* Every universe's chains are copies of this template. *)
let chain =
  Params.make "template" ~block_interval:10.0 ~pow_bits:8 ~block_capacity:100 ~confirm_depth:4

(* The chaos plans', paper tables' and tests' chains: Δ = 3 x 5 s. *)
let fast_chain = { chain with block_interval = 5.0; confirm_depth = 3 }

(* [chains] plus a witness chain, each a copy of [chain] on [nodes] nodes
   funding every identity in [ids]. Returns (universe, participants). *)
let make_universe ?(seed = 7) ?instrument ?(nodes = 2) ?(chain = chain) ~chains ids () =
  let u = Universe.create ~seed ?instrument () in
  let premine = List.map (fun id -> (Keys.address id, funding)) ids in
  List.iter
    (fun name ->
      ignore
        (Universe.add_chain ~nodes u
           { chain with chain_id = name; symbol = String.uppercase_ascii name; premine }))
    (chains @ [ Ac3wn.witness_chain ]);
  (u, List.map (fun id -> Participant.create u ~identity:id) ids)

(* --- Graphs -------------------------------------------------------------- *)

let amount_of i = Amount.of_int ((i + 1) * 10_000)

(* The paper's running example (Figure 4): Alice swaps X on chain 1 for
   Bob's Y on chain 2. [offset] is added to both amounts, so concurrent
   swaps between the same parties still have distinct graphs. *)
let two_party_graph ?(offset = 0) ~chain1 ~chain2 ids ~timestamp =
  let amount i = Amount.(amount_of i + of_int offset) in
  match ids with
  | [ a; b ] ->
      Ac2t.create
        ~edges:
          [
            { Ac2t.from_pk = Keys.public a; to_pk = Keys.public b; amount = amount 0; chain = chain1 };
            { Ac2t.from_pk = Keys.public b; to_pk = Keys.public a; amount = amount 1; chain = chain2 };
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
