(* Pass 2: static timelock-order analysis.

   The dynamic protocol (herlihy.ml) redeems an edge (u -> v) when its
   recipient v knows the secret; v learns it from the first redeemed
   contract among its own outgoing edges. Statically we compute, per
   participant, the earliest time the protocol *guarantees* knowledge of
   the secret under honest prompt behaviour:

     K(leader) = T_pub                      (the leader owns the secret and
                                             reveals once all contracts are
                                             published, ~ delta * Diam(D))
     K(p)      = min over outgoing (p -> w) of K(w) + delta

   i.e. a shortest path from p to the leader in the reversed graph with
   uniform hop cost delta. Redeeming (u -> v) then completes by
   K(v) + delta, and the static invariant is

     timelock(u -> v) >= K(v) + delta        for every edge.

   Participants with incoming contracts but no directed path to the
   leader have K = infinity: no timelock can save them (T001). *)

module Ac2t = Ac3_contract.Ac2t
module Hex = Ac3_crypto.Hex

type assignment = {
  edge : Ac2t.edge;
  depth : int;
  expiry : float;
}

let short pk = Hex.short ~n:6 pk

(* BFS depths from the leader over directed edges: each participant's
   deployment round under Herlihy's protocol, which takes its timelocks
   from [assign]. *)
let depths_from_leader graph leader =
  let dist = Hashtbl.create 8 in
  Hashtbl.replace dist leader 0;
  let q = Queue.create () in
  Queue.push leader q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    let du = Hashtbl.find dist u in
    List.iter
      (fun (e : Ac2t.edge) ->
        if String.equal e.Ac2t.from_pk u && not (Hashtbl.mem dist e.Ac2t.to_pk) then begin
          Hashtbl.replace dist e.Ac2t.to_pk (du + 1);
          Queue.push e.Ac2t.to_pk q
        end)
      (Ac2t.edges graph)
  done;
  dist

let assign ~graph ~delta ~timelock_slack ~start_time =
  if delta <= 0.0 then Error "delta must be positive"
  else
    let leader = List.hd (Ac2t.participants graph) in
    if not (Ac2t.single_leader_executable graph leader) then
      Error
        (Fmt.str "graph (%a) is not executable by a single-leader protocol (Sec 5.3)"
           Ac2t.pp_shape (Ac2t.classify graph))
    else
      let dist = depths_from_leader graph leader in
      match
        List.find_opt (fun v -> not (Hashtbl.mem dist v)) (Ac2t.participants graph)
      with
      | Some v -> Error (Fmt.str "participant %s is unreachable from the leader" (short v))
      | None ->
          let diam = Ac2t.diameter graph in
          Ok
            (List.map
               (fun (e : Ac2t.edge) ->
                 let depth = Hashtbl.find dist e.Ac2t.from_pk in
                 let expiry =
                   start_time
                   +. (delta *. (float_of_int ((2 * diam) - depth) +. timelock_slack))
                 in
                 { edge = e; depth; expiry })
               (Ac2t.edges graph))

(* Reverse BFS to the leader: for each participant, the hop count of the
   shortest directed path to the leader and the first edge of that path
   (the outgoing contract whose redemption teaches it the secret). *)
let secret_paths graph leader =
  let hops = Hashtbl.create 8 in
  let parent = Hashtbl.create 8 in
  Hashtbl.replace hops leader 0;
  let q = Queue.create () in
  Queue.push leader q;
  while not (Queue.is_empty q) do
    let w = Queue.pop q in
    let dw = Hashtbl.find hops w in
    List.iter
      (fun (e : Ac2t.edge) ->
        if String.equal e.Ac2t.to_pk w && not (Hashtbl.mem hops e.Ac2t.from_pk) then begin
          Hashtbl.replace hops e.Ac2t.from_pk (dw + 1);
          Hashtbl.replace parent e.Ac2t.from_pk e;
          Queue.push e.Ac2t.from_pk q
        end)
      (Ac2t.edges graph)
  done;
  (hops, parent)

(* The propagation path p -> ... -> leader, as the list of edges whose
   successive redemptions teach each hop the secret. *)
let path_to_leader parent p =
  let rec walk acc p =
    match Hashtbl.find_opt parent p with
    | None -> List.rev acc
    | Some (e : Ac2t.edge) -> walk (e :: acc) e.Ac2t.to_pk
  in
  walk [] p

let pp_path ppf (path : Ac2t.edge list) =
  Fmt.list ~sep:(Fmt.any " <- ")
    (fun ppf (e : Ac2t.edge) ->
      Fmt.pf ppf "%s redeems (%s->%s @%s)" (short e.Ac2t.to_pk) (short e.Ac2t.from_pk)
        (short e.Ac2t.to_pk) e.Ac2t.chain)
    ppf path

let check ~graph ~delta ~start_time assignments =
  if delta <= 0.0 then
    [
      Diagnostic.error ~rule:"T004-bad-delta" ~location:"config"
        "delta = %g: the timelock unit must be positive" delta;
    ]
  else
    let leader = List.hd (Ac2t.participants graph) in
    let diam = Ac2t.diameter graph in
    let t_pub = start_time +. (delta *. float_of_int diam) in
    let hops, parent = secret_paths graph leader in
    let knows pk =
      match Hashtbl.find_opt hops pk with
      | Some h -> Some (t_pub +. (delta *. float_of_int h))
      | None -> None
    in
    let unreachable =
      List.filter_map
        (fun pk ->
          let has_incoming =
            List.exists (fun (e : Ac2t.edge) -> String.equal e.Ac2t.to_pk pk) (Ac2t.edges graph)
          in
          if has_incoming && knows pk = None then
            Some
              (Diagnostic.error ~rule:"T001-secret-unreachable"
                 ~location:(Fmt.str "participant %s" (short pk))
                 "has incoming contracts but no directed path to the leader %s: no redemption \
                  of its own outgoing contracts can ever reveal the secret, so its incoming \
                  contracts expire and refund while the rest of the graph redeems — a \
                  guaranteed Sec 3 atomicity violation"
                 (short leader))
          else None)
        (Ac2t.participants graph)
    in
    let order, slacks =
      List.fold_left
        (fun (diags, slacks) a ->
          let v = a.edge.Ac2t.to_pk in
          match knows v with
          | None -> (diags, slacks) (* already reported by T001 *)
          | Some k ->
              let redeem_done = k +. delta in
              let slack = (a.expiry -. redeem_done) /. delta in
              if a.expiry < redeem_done then
                let path = path_to_leader parent v in
                let d =
                  Diagnostic.error ~rule:"T002-timelock-order"
                    ~location:
                      (Fmt.str "edge (%s->%s @%s)" (short a.edge.Ac2t.from_pk) (short v)
                         a.edge.Ac2t.chain)
                    "expires at t=%.1f but its redemption cannot complete before t=%.1f: all \
                     contracts are only published at t=%.1f (%d deployment rounds), the secret \
                     reaches %s after %d more hop(s) [%a], and publishing the redemption costs \
                     one more delta; %s refunds at expiry first (Sec 3 violation, short by \
                     %.1f delta)"
                    a.expiry redeem_done t_pub diam (short v)
                    (Option.value ~default:0 (Hashtbl.find_opt hops v))
                    pp_path
                    (path @ [ a.edge ])
                    (short a.edge.Ac2t.from_pk) (-.slack)
                in
                (d :: diags, slacks)
              else (diags, slack :: slacks))
        ([], []) assignments
    in
    let min_slack =
      match slacks with
      | [] -> []
      | s :: rest ->
          [
            Diagnostic.info ~rule:"T003-min-slack" ~location:"assignment"
              "tightest timelock margin is %.1f delta" (List.fold_left min s rest);
          ]
    in
    unreachable @ List.rev order @ min_slack

let verify ~graph ~delta ~timelock_slack ~start_time =
  if delta <= 0.0 then
    [
      Diagnostic.error ~rule:"T004-bad-delta" ~location:"config"
        "delta = %g: the timelock unit must be positive" delta;
    ]
  else
    match assign ~graph ~delta ~timelock_slack ~start_time with
    | Error e -> [ Diagnostic.error ~rule:"T000-not-executable" ~location:"graph" "%s" e ]
    | Ok assignments -> check ~graph ~delta ~start_time assignments
