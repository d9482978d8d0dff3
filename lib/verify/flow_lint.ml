(* Pass 4: the F rule family, rendered from lib/flow's abstract
   interpretation. The kernel stays Diagnostic-free; everything here is
   formatting. *)

module Ac2t = Ac3_contract.Ac2t
module Econ = Ac3_contract.Econ
module Flow = Ac3_flow.Flow
module Hex = Ac3_crypto.Hex

let short pk = Hex.short ~n:6 pk

let edge_loc i (e : Ac2t.edge) =
  Fmt.str "edge %d (%s->%s @%s)" i (short e.Ac2t.from_pk) (short e.Ac2t.to_pk) e.Ac2t.chain

let participant_loc pk = Fmt.str "participant %s" (short pk)

(* Exposures grouped by participant, preserving the analysis order
   (participant first-appearance, chains sorted within). *)
let by_participant exposures =
  List.rev
    (List.fold_left
       (fun groups (x : Flow.exposure) ->
         match groups with
         | (pk, xs) :: rest when String.equal pk x.Flow.pk -> (pk, x :: xs) :: rest
         | _ -> (x.Flow.pk, [ x ]) :: groups)
       [] exposures)
  |> List.map (fun (pk, xs) -> (pk, List.rev xs))

let f000 (a : Flow.analysis) =
  List.map
    (fun (pk, xs) ->
      Diagnostic.info ~rule:"F000-exposure" ~location:(participant_loc pk)
        "value intervals (budget %d): %a" a.Flow.fault_budget
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (x : Flow.exposure) ->
             Fmt.pf ppf "%a@%s" Flow.pp_interval x.Flow.interval x.Flow.chain))
        xs)
    (by_participant a.Flow.exposures)

let f001 (a : Flow.analysis) =
  List.map
    (fun (w : Flow.witness) ->
      let r = w.Flow.redeemed and f = w.Flow.refunded in
      Diagnostic.error ~rule:"F001-worse-off" ~location:(participant_loc w.Flow.victim)
        "a crash of this participant (party %d) settles it strictly below the all-abort \
         outcome: %s still learns the secret via a %d-hop path and redeems %Ld@%s \
         (%s->%s), while the incoming %Ld@%s (%s->%s) expires and refunds"
        w.Flow.victim_index
        (short r.Ac2t.to_pk)
        (List.length w.Flow.path)
        (Ac3_chain.Amount.to_int64 r.Ac2t.amount)
        r.Ac2t.chain (short r.Ac2t.from_pk) (short r.Ac2t.to_pk)
        (Ac3_chain.Amount.to_int64 f.Ac2t.amount)
        f.Ac2t.chain (short f.Ac2t.from_pk) (short f.Ac2t.to_pk))
    a.Flow.witnesses

let f002 (a : Flow.analysis) =
  List.map
    (fun (pk, chain, shortfall) ->
      let incoming =
        match
          List.find_opt
            (fun (x : Flow.exposure) ->
              String.equal x.Flow.pk pk && String.equal x.Flow.chain chain)
            a.Flow.exposures
        with
        | Some x -> x.Flow.incoming
        | None -> 0L
      in
      let location = participant_loc pk in
      if Int64.compare incoming 0L > 0 then
        Diagnostic.warning ~rule:"F002-unfunded-escrow" ~location
          "escrow on %s exceeds incoming value there by %Ld: the participant must bring \
           external funds mid-protocol to deploy all its contracts"
          chain shortfall
      else
        Diagnostic.info ~rule:"F002-unfunded-escrow" ~location
          "escrows %Ld@%s with no incoming value on that chain: funded entirely from the \
           participant's own balance"
          shortfall chain)
    a.Flow.external_funding

let f003_f005 (a : Flow.analysis) =
  List.map
    (fun (issue : Flow.issue) ->
      match issue with
      | Flow.No_refund { index; edge } ->
          Diagnostic.error ~rule:"F003-stranded-deposit" ~location:(edge_loc index edge)
            "the economic profile has no refund path: every abort strands the %Ld deposit \
             in the contract forever"
            (Ac3_chain.Amount.to_int64 edge.Ac2t.amount)
      | Flow.Minting { index; edge; payout; deposit } ->
          Diagnostic.error ~rule:"F005-nonconserving" ~location:(edge_loc index edge)
            "settlement releases %Ld of a %Ld deposit: the contract mints value it never \
             held"
            payout deposit
      | Flow.Stranding { index; edge; payout; deposit } ->
          Diagnostic.error ~rule:"F005-nonconserving" ~location:(edge_loc index edge)
            "settlement releases only %Ld of a %Ld deposit: the remainder is stranded on \
             every outcome"
            payout deposit)
    a.Flow.issues

let f004 ~(econ : Econ.t) (a : Flow.analysis) =
  if a.Flow.fee_bleed then
    [
      Diagnostic.warning ~rule:"F004-fee-bleed" ~location:(Fmt.str "econ %s" econ.Econ.code_id)
        "positive per-call fee with an unbounded retry budget: a counterparty can force \
         resubmissions and bleed this participant's balance without ever settling";
    ]
  else []

let f006 (a : Flow.analysis) =
  if a.Flow.widened then
    [
      Diagnostic.warning ~rule:"F006-widened-races" ~location:"graph"
        "a timelock race widens the budget-0 intervals to the faulted hull: mixed \
         redeem/refund settlements are reachable without any crash";
    ]
  else []

let f007 (a : Flow.analysis) =
  match a.Flow.asymmetric with
  | [] -> []
  | victims ->
      [
        Diagnostic.warning ~rule:"F007-asymmetric-exposure" ~location:"graph"
          "crash exposure is asymmetric: %a can settle below the all-abort outcome while \
           the leader cannot"
          (Fmt.list ~sep:(Fmt.any ", ") (fun ppf pk -> Fmt.string ppf (short pk)))
          victims;
      ]

let of_analysis_with ~econ (a : Flow.analysis) =
  f000 a @ f001 a @ f002 a @ f003_f005 a @ f004 ~econ a @ f006 a @ f007 a

let of_analysis (a : Flow.analysis) = of_analysis_with ~econ:(Flow.default_econ a.Flow.profile) a

let lint ?fault_budget ?econ ?static_races ~profile graph =
  let a = Flow.analyze ?fault_budget ?econ ?static_races ~profile graph in
  of_analysis_with ~econ:(Option.value econ ~default:(Flow.default_econ profile)) a

(* --- G007/G009 aliases, read off the exposures -------------------------- *)

let conservation edges =
  let a = Flow.analyze_edges ~fault_budget:0 ~profile:Flow.Witness edges in
  List.concat_map
    (fun (pk, xs) ->
      let location = participant_loc pk in
      let receives = List.exists (fun (x : Flow.exposure) -> x.Flow.in_edges > 0) xs in
      let pays = List.exists (fun (x : Flow.exposure) -> x.Flow.out_edges > 0) xs in
      let summary =
        Diagnostic.info ~rule:"G009-value-delta" ~location "commit delta: %a"
          (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (x : Flow.exposure) ->
               Fmt.pf ppf "%+Ld@%s" x.Flow.commit x.Flow.chain))
          xs
      in
      let net_payer =
        if pays && not receives then
          [
            Diagnostic.warning ~rule:"G007-net-payer" ~location
              "pays on %d edge(s) but receives on none: a commit strictly loses this \
               participant assets, so it has no incentive to cooperate"
              (List.fold_left (fun n (x : Flow.exposure) -> n + x.Flow.out_edges) 0 xs);
          ]
        else []
      in
      summary :: net_payer)
    (by_participant a.Flow.exposures)
