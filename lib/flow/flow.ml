(* Economic-safety abstract interpreter (see flow.mli for the domain).

   Everything is computed from the edge list in deterministic order:
   participants in first-appearance order, chains sorted per
   participant, edges in graph order. No concrete execution is
   enumerated — the transfer functions are sums and two BFS passes, so
   an analysis is O(V + E) and runs at load-engine scale.

   Soundness note on the single-leader upper bound: the hashlock secret
   starts at the leader and propagates backward along redeemed edges
   (redeeming edge u->v teaches u, and requires v to know), so a
   participant can learn it iff it has a directed path to the leader.
   An incoming edge whose recipient can never learn the secret can
   never redeem, which is exactly what the timelock pass flags as
   T001; restricting the upper bound to redeemable incoming value keeps
   the interval sound even on those graphs.

   Intervals assume a conserving economic profile (settlement releases
   the deposit exactly); non-conserving profiles are rejected outright
   as Minting/Stranding issues (F005) rather than folded into the
   arithmetic. *)

module Keys = Ac3_crypto.Keys
module Amount = Ac3_chain.Amount
module Ac2t = Ac3_contract.Ac2t
module Econ = Ac3_contract.Econ
module Htlc = Ac3_contract.Htlc
module Permissionless_sc = Ac3_contract.Permissionless_sc

type profile = Single_leader | Witness

type interval = { lo : int64; hi : int64 }

let contains { lo; hi } v = Int64.compare lo v <= 0 && Int64.compare v hi <= 0

let subsumes outer inner =
  Int64.compare outer.lo inner.lo <= 0 && Int64.compare inner.hi outer.hi <= 0

let pp_interval ppf { lo; hi } = Fmt.pf ppf "[%Ld, %Ld]" lo hi

type exposure = {
  pk : Keys.public;
  chain : string;
  incoming : int64;
  outgoing : int64;
  in_edges : int;
  out_edges : int;
  redeemable_in : int64;
  commit : int64;
  interval : interval;
}

type witness = {
  victim : Keys.public;
  victim_index : int;
  crash : int list;
  redeemed : Ac2t.edge;
  refunded : Ac2t.edge;
  path : Ac2t.edge list;
}

type issue =
  | Minting of { index : int; edge : Ac2t.edge; payout : int64; deposit : int64 }
  | Stranding of { index : int; edge : Ac2t.edge; payout : int64; deposit : int64 }
  | No_refund of { index : int; edge : Ac2t.edge }

type analysis = {
  profile : profile;
  fault_budget : int;
  widened : bool;
  exposures : exposure list;
  witnesses : witness list;
  issues : issue list;
  external_funding : (Keys.public * string * int64) list;
  fee_bleed : bool;
  asymmetric : Keys.public list;
}

(* Participants in first-appearance order, as Ac2t.participants. *)
let participants_of edges =
  List.fold_left
    (fun acc (e : Ac2t.edge) ->
      let add acc pk = if List.mem pk acc then acc else acc @ [ pk ] in
      add (add acc e.Ac2t.from_pk) e.Ac2t.to_pk)
    [] edges

(* --- per-(participant, chain) aggregates ------------------------------- *)

type agg = {
  mutable a_in : int64;
  mutable a_out : int64;
  mutable a_in_edges : int;
  mutable a_out_edges : int;
}

let aggregates edges =
  let tbl : (Keys.public * string, agg) Hashtbl.t = Hashtbl.create 16 in
  let get pk chain =
    let key = (pk, chain) in
    match Hashtbl.find_opt tbl key with
    | Some a -> a
    | None ->
        let a = { a_in = 0L; a_out = 0L; a_in_edges = 0; a_out_edges = 0 } in
        Hashtbl.replace tbl key a;
        a
  in
  List.iter
    (fun (e : Ac2t.edge) ->
      let v = Amount.to_int64 e.Ac2t.amount in
      let snd_ = get e.Ac2t.from_pk e.Ac2t.chain in
      snd_.a_out <- Int64.add snd_.a_out v;
      snd_.a_out_edges <- snd_.a_out_edges + 1;
      let rcv = get e.Ac2t.to_pk e.Ac2t.chain in
      rcv.a_in <- Int64.add rcv.a_in v;
      rcv.a_in_edges <- rcv.a_in_edges + 1)
    edges;
  tbl

(* Sorted distinct chains a participant touches, read from the edge list
   so the iteration order never depends on hash-table layout. *)
let chains_of edges pk =
  List.sort_uniq String.compare
    (List.filter_map
       (fun (e : Ac2t.edge) ->
         if String.equal e.Ac2t.from_pk pk || String.equal e.Ac2t.to_pk pk then
           Some e.Ac2t.chain
         else None)
       edges)

(* --- secret reachability (single-leader profile) ------------------------ *)

(* [reach_leader ~avoid edges participants leader v]: BFS along edge
   direction from [v] to the leader, skipping [avoid]; returns the path
   as an edge list ([] when v is the leader itself), or None. *)
let reach_leader ?avoid edges leader v =
  let skip pk = match avoid with Some a -> String.equal a pk | None -> false in
  if skip v then None
  else if String.equal v leader then Some []
  else begin
    let parent : (Keys.public, Ac2t.edge) Hashtbl.t = Hashtbl.create 16 in
    let q = Queue.create () in
    Queue.push v q;
    let seen = Hashtbl.create 16 in
    Hashtbl.replace seen v ();
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun (e : Ac2t.edge) ->
          if
            (not !found)
            && String.equal e.Ac2t.from_pk u
            && (not (Hashtbl.mem seen e.Ac2t.to_pk))
            && not (skip e.Ac2t.to_pk)
          then begin
            Hashtbl.replace seen e.Ac2t.to_pk ();
            Hashtbl.replace parent e.Ac2t.to_pk e;
            if String.equal e.Ac2t.to_pk leader then found := true
            else Queue.push e.Ac2t.to_pk q
          end)
        edges
    done;
    if not !found then None
    else begin
      (* Reconstruct leader <- ... <- v, then reverse to v -> leader. *)
      let rec back node acc =
        match Hashtbl.find_opt parent node with
        | None -> acc
        | Some e -> back e.Ac2t.from_pk (e :: acc)
      in
      Some (List.rev (back leader []))
    end
  end

(* --- the analysis ------------------------------------------------------- *)

let default_econ = function
  | Single_leader -> Htlc.econ
  | Witness -> Permissionless_sc.econ

let analyze_edges ?(fault_budget = 1) ?econ ?(static_races = false) ~profile edges =
  let econ = match econ with Some e -> e | None -> default_econ profile in
  let participants = participants_of edges in
  let leader = match participants with [] -> None | l :: _ -> Some l in
  let tbl = aggregates edges in
  let widened = fault_budget = 0 && static_races && profile = Single_leader in
  let wide = fault_budget >= 1 || widened in
  let can_redeem =
    (* recipient pk -> can it ever learn the secret? (memoized per pk) *)
    let memo = Hashtbl.create 16 in
    fun pk ->
      match profile, leader with
      | Witness, _ | _, None -> true
      | Single_leader, Some l -> (
          match Hashtbl.find_opt memo pk with
          | Some r -> r
          | None ->
              let r = reach_leader edges l pk <> None in
              Hashtbl.replace memo pk r;
              r)
  in
  let retries = match econ.Econ.max_retries with Some r -> max 1 r | None -> 1 in
  let fee = Amount.to_int64 econ.Econ.submit_fee in
  let fee_bleed =
    econ.Econ.max_retries = None
    && (Int64.compare fee 0L > 0
       || Int64.compare (Amount.to_int64 econ.Econ.evidence_fee) 0L > 0)
  in
  let exposures =
    List.concat_map
      (fun pk ->
        List.map
          (fun chain ->
            let a = Hashtbl.find tbl (pk, chain) in
            let commit = Int64.sub a.a_in a.a_out in
            let redeemable_in =
              match profile with
              | Witness -> a.a_in
              | Single_leader ->
                  List.fold_left
                    (fun acc (e : Ac2t.edge) ->
                      if
                        String.equal e.Ac2t.to_pk pk
                        && String.equal e.Ac2t.chain chain
                        && can_redeem pk
                      then Int64.add acc (Amount.to_int64 e.Ac2t.amount)
                      else acc)
                    0L edges
            in
            (* Worst-case fee spend on this chain: deploy + refund of
               every outgoing contract plus redeem of every incoming
               one, [retries] times each. Zero under the shipped
               profiles, so intervals stay exact contract-value
               deltas. *)
            let fee_cost =
              Int64.mul fee
                (Int64.mul (Int64.of_int retries)
                   (Int64.of_int ((2 * a.a_out_edges) + a.a_in_edges)))
            in
            let interval =
              if wide then
                match profile with
                | Single_leader ->
                    { lo = Int64.sub (Int64.neg a.a_out) fee_cost; hi = redeemable_in }
                | Witness ->
                    {
                      lo = Int64.sub (Int64.neg a.a_out) fee_cost;
                      hi = (if Int64.compare commit 0L > 0 then commit else 0L);
                    }
              else
                {
                  lo =
                    Int64.sub
                      (if Int64.compare commit 0L < 0 then commit else 0L)
                      fee_cost;
                  hi = (if Int64.compare commit 0L > 0 then commit else 0L);
                }
            in
            {
              pk;
              chain;
              incoming = a.a_in;
              outgoing = a.a_out;
              in_edges = a.a_in_edges;
              out_edges = a.a_out_edges;
              redeemable_in;
              commit;
              interval;
            })
          (chains_of edges pk))
      participants
  in
  let witnesses =
    match profile, leader with
    | Witness, _ | _, None -> []
    | Single_leader, Some l when fault_budget >= 1 ->
        List.filteri (fun i _ -> i > 0) participants
        |> List.filter_map (fun p ->
               let incoming =
                 List.find_opt (fun (e : Ac2t.edge) -> String.equal e.Ac2t.to_pk p) edges
               in
               let outgoing =
                 (* An outgoing edge whose recipient still learns the
                    secret when [p] stays silent: the crash of [p]
                    alone realizes the loss. *)
                 List.filter_map
                   (fun (e : Ac2t.edge) ->
                     if not (String.equal e.Ac2t.from_pk p) then None
                     else
                       match reach_leader ~avoid:p edges l e.Ac2t.to_pk with
                       | Some path -> Some (e, path)
                       | None -> None)
                   edges
               in
               match incoming, outgoing with
               | Some refunded, (redeemed, path) :: _ ->
                   let victim_index =
                     let rec idx i = function
                       | [] -> assert false
                       | q :: _ when String.equal q p -> i
                       | _ :: rest -> idx (i + 1) rest
                     in
                     idx 0 participants
                   in
                   Some
                     {
                       victim = p;
                       victim_index;
                       crash = [ victim_index ];
                       redeemed;
                       refunded;
                       path;
                     }
               | _ -> None)
    | Single_leader, Some _ -> []
  in
  let issues =
    if not econ.Econ.locks_deposit then []
    else
      List.concat
        (List.mapi
           (fun index (e : Ac2t.edge) ->
             let deposit = Econ.deposit_of_edge econ e.Ac2t.amount in
             let payout = Econ.payout econ deposit in
             let d = Amount.to_int64 deposit and p = Amount.to_int64 payout in
             let conservation =
               if Int64.compare p d > 0 then [ Minting { index; edge = e; payout = p; deposit = d } ]
               else if Int64.compare p d < 0 then
                 [ Stranding { index; edge = e; payout = p; deposit = d } ]
               else []
             in
             let refund =
               if econ.Econ.refundable then [] else [ No_refund { index; edge = e } ]
             in
             conservation @ refund)
           edges)
  in
  let external_funding =
    List.filter_map
      (fun x ->
        let short = Int64.sub x.outgoing x.incoming in
        if Int64.compare short 0L > 0 then Some (x.pk, x.chain, short) else None)
      exposures
  in
  let asymmetric = List.map (fun w -> w.victim) witnesses in
  {
    profile;
    fault_budget;
    widened;
    exposures;
    witnesses;
    issues;
    external_funding;
    fee_bleed;
    asymmetric;
  }

let analyze ?fault_budget ?econ ?static_races ~profile graph =
  analyze_edges ?fault_budget ?econ ?static_races ~profile (Ac2t.edges graph)

let interval_for a ~pk ~chain =
  match
    List.find_opt (fun x -> String.equal x.pk pk && String.equal x.chain chain) a.exposures
  with
  | Some x -> x.interval
  | None -> { lo = 0L; hi = 0L }

let screen ?econ ?(profile = Witness) graph =
  (analyze ~fault_budget:0 ?econ ~profile graph).issues

(* --- checking concrete settlements -------------------------------------- *)

type settlement = S_unpublished | S_published | S_redeemed | S_refunded

let settlement_deltas graph statuses =
  let edges = Ac2t.edges graph in
  if List.length statuses <> List.length edges then
    invalid_arg "Flow.settlement_deltas: status list does not match the edge count";
  let tbl : (Keys.public * string, int64) Hashtbl.t = Hashtbl.create 16 in
  let bump pk chain v =
    let key = (pk, chain) in
    let cur = Option.value ~default:0L (Hashtbl.find_opt tbl key) in
    Hashtbl.replace tbl key (Int64.add cur v)
  in
  List.iter2
    (fun (e : Ac2t.edge) status ->
      let a = Amount.to_int64 e.Ac2t.amount in
      (* Every incident pair gets an entry even when nothing moved. *)
      bump e.Ac2t.from_pk e.Ac2t.chain 0L;
      bump e.Ac2t.to_pk e.Ac2t.chain 0L;
      match status with
      | S_redeemed ->
          bump e.Ac2t.from_pk e.Ac2t.chain (Int64.neg a);
          bump e.Ac2t.to_pk e.Ac2t.chain a
      | S_published -> bump e.Ac2t.from_pk e.Ac2t.chain (Int64.neg a)
      | S_unpublished | S_refunded -> ())
    edges statuses;
  List.concat_map
    (fun pk ->
      List.filter_map
        (fun chain ->
          Option.map (fun v -> ((pk, chain), v)) (Hashtbl.find_opt tbl (pk, chain)))
        (chains_of edges pk))
    (participants_of edges)

type violation = {
  v_pk : Keys.public;
  v_chain : string;
  v_delta : int64;
  v_interval : interval;
}

let violations a graph statuses =
  List.filter_map
    (fun ((pk, chain), delta) ->
      let itv = interval_for a ~pk ~chain in
      if contains itv delta then None
      else Some { v_pk = pk; v_chain = chain; v_delta = delta; v_interval = itv })
    (settlement_deltas graph statuses)

let short pk = Ac3_crypto.Hex.short ~n:6 pk

let pp_violation ppf v =
  Fmt.pf ppf "%s@%s: settled at %+Ld outside %a" (short v.v_pk) v.v_chain v.v_delta
    pp_interval v.v_interval
