(* Pass 3: bounded exhaustive exploration of a contract's state machine.

   Nodes are (state, cumulative-payout) pairs: payouts are attached to
   transitions, so the same contract state reached with different
   amounts already released must be distinguished for the conservation
   check. The probe set is finite and fired from every node, so the
   automaton is finite whenever the contract's reachable state space is
   (the swap contracts have three states; the bound is a backstop for
   arbitrary CODE). *)

module Keys = Ac3_crypto.Keys
module Sha256 = Ac3_crypto.Sha256
open Ac3_chain

type cls = Published | Redeemed | Refunded | Other

type probe = {
  label : string;
  fn : string;
  args : Value.t;
  caller : Keys.public;
  time : float;
}

type spec = {
  code : (module Contract_iface.CODE);
  chain_id : string;
  deployer : Keys.public;
  deposit : Amount.t;
  init_args : Value.t;
  init_time : float;
  probes : probe list;
  classify : Value.t -> cls;
  payee_of : (Value.t -> cls -> string option) option;
  max_nodes : int;
}

type node = {
  id : int;
  state : Value.t;
  cls : cls;
  paid : Amount.t;
  stray : Amount.t;
  succs : (string * int) list;
}

type automaton = {
  table : (int, node) Hashtbl.t;
  count : int;
  n_transitions : int;
  was_truncated : bool;
  deposit : Amount.t;
}

let pp_cls ppf = function
  | Published -> Fmt.string ppf "P"
  | Redeemed -> Fmt.string ppf "RD"
  | Refunded -> Fmt.string ppf "RF"
  | Other -> Fmt.string ppf "other"

let is_terminal = function Redeemed | Refunded -> true | Published | Other -> false

let contract_id = Contract_iface.contract_id_of_deploy ~txid:(Sha256.digest "ac3-verify-deploy")

let explore spec =
  let module C = (val spec.code : Contract_iface.CODE) in
  let init_ctx : Contract_iface.ctx =
    {
      chain_id = spec.chain_id;
      block_height = 1;
      block_time = spec.init_time;
      txid = Sha256.digest "ac3-verify-deploy";
      sender = spec.deployer;
      value = spec.deposit;
      contract_id;
      balance = spec.deposit;
    }
  in
  match C.init init_ctx spec.init_args with
  | Error e -> Error e
  | Ok state0 ->
      let table = Hashtbl.create 64 in
      let index = Hashtbl.create 64 in
      (* Node identity: canonical state bytes plus the payout totals
         (straight and misrouted) on the path reaching it. *)
      let key state paid stray =
        Sha256.digest_list
          [ Value.to_bytes state; Amount.to_string paid; Amount.to_string stray ]
      in
      let count = ref 0 in
      let n_transitions = ref 0 in
      let was_truncated = ref false in
      let pending = Queue.create () in
      let intern state paid stray =
        let k = key state paid stray in
        match Hashtbl.find_opt index k with
        | Some id -> id
        | None ->
            let id = !count in
            incr count;
            Hashtbl.replace index k id;
            Hashtbl.replace table id
              { id; state; cls = spec.classify state; paid; stray; succs = [] };
            Queue.push id pending;
            id
      in
      ignore (intern state0 Amount.zero Amount.zero);
      while not (Queue.is_empty pending) do
        let id = Queue.pop pending in
        let n = Hashtbl.find table id in
        (* A node that already over-released has no well-defined
           remaining balance (the subtraction below would raise): stop
           probing here and let S004 report it instead of crashing the
           verifier on the contract's bug. *)
        if Amount.compare n.paid spec.deposit > 0 then Hashtbl.replace table id { n with succs = [] }
        else
          let succs =
            List.filter_map
              (fun probe ->
                if !count >= spec.max_nodes then begin
                  was_truncated := true;
                  None
                end
                else
                  let ctx : Contract_iface.ctx =
                    {
                      chain_id = spec.chain_id;
                      block_height = 2;
                      block_time = probe.time;
                      txid = Sha256.digest_list [ "ac3-verify-call"; string_of_int id; probe.label ];
                      sender = probe.caller;
                      value = Amount.zero;
                      contract_id;
                      balance = Amount.(spec.deposit - n.paid);
                    }
                  in
                  match C.call ctx ~state:n.state ~fn:probe.fn ~args:probe.args with
                  | Error _ -> None
                  | Ok outcome ->
                      let released =
                        Amount.sum (List.map snd outcome.Contract_iface.payouts)
                      in
                      let misrouted =
                        (* Payouts to anyone but the settlement payee of
                           the post-transition state. *)
                        match spec.payee_of with
                        | None -> Amount.zero
                        | Some payee ->
                            let state' = outcome.Contract_iface.state in
                            let expected = payee state' (spec.classify state') in
                            Amount.sum
                              (List.filter_map
                                 (fun (addr, amt) ->
                                   match expected with
                                   | Some a when String.equal a addr -> None
                                   | Some _ | None -> Some amt)
                                 outcome.Contract_iface.payouts)
                      in
                      let target =
                        intern outcome.Contract_iface.state
                          Amount.(n.paid + released)
                          Amount.(n.stray + misrouted)
                      in
                      incr n_transitions;
                      Some (probe.label, target))
              spec.probes
          in
          Hashtbl.replace table id { n with succs }
      done;
      Ok
        {
          table;
          count = !count;
          n_transitions = !n_transitions;
          was_truncated = !was_truncated;
          deposit = spec.deposit;
        }

let nodes a =
  List.sort
    (fun n1 n2 -> Int.compare n1.id n2.id)
    (* ac3-lint: allow D001 — unique node ids; sorted by Int.compare above *)
    (Hashtbl.fold (fun _ n acc -> n :: acc) a.table [])

let node_count a = a.count

let truncated a = a.was_truncated

let cls_rank = function Published -> 0 | Redeemed -> 1 | Refunded -> 2 | Other -> 3

let classes a =
  List.sort_uniq (fun a b -> Int.compare (cls_rank a) (cls_rank b))
    (* ac3-lint: allow D001 — sort_uniq with a total order above erases fold order *)
    (Hashtbl.fold (fun _ n acc -> n.cls :: acc) a.table [])

(* Forward reachability from [start], following succs. *)
let reachable_from a start =
  let seen = Hashtbl.create 16 in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      List.iter (fun (_, t) -> go t) (Hashtbl.find a.table id).succs
    end
  in
  go start;
  seen

let node_loc n = Fmt.str "state #%d (%a, paid %a)" n.id pp_cls n.cls Amount.pp n.paid

(* [name] identifies the owning contract in diagnostic locations, so a
   report covering several contracts stays attributable: "htlc: state #3"
   rather than a bare "state #3". *)
let check ?name a =
  let qual loc = match name with None -> loc | Some c -> c ^ ": " ^ loc in
  let node_loc n = qual (node_loc n) in
  let ns = nodes a in
  let summary =
    Diagnostic.info ~rule:"S000-summary" ~location:(qual "automaton")
      "%d reachable state(s), %d transition(s), classes {%a}" a.count a.n_transitions
      (Fmt.list ~sep:(Fmt.any " ") pp_cls)
      (classes a)
  in
  let stuck =
    List.filter_map
      (fun n ->
        if is_terminal n.cls then None
        else
          let reach = reachable_from a n.id in
          let escapes =
            (* ac3-lint: allow D001 — commutative boolean-or over the reach set *)
            Hashtbl.fold
              (fun id () acc -> acc || is_terminal (Hashtbl.find a.table id).cls)
              reach false
          in
          if escapes then None
          else
            Some
              (Diagnostic.error ~rule:"S001-stuck-state" ~location:(node_loc n)
                 "no Redeemed or Refunded state is reachable from here: the locked asset can \
                  be stranded forever"))
      ns
  in
  let absorbing =
    List.concat_map
      (fun n ->
        if not (is_terminal n.cls) then []
        else
          List.filter_map
            (fun (label, t) ->
              if t = n.id then None
              else
                Some
                  (Diagnostic.error ~rule:"S002-terminal-not-absorbing" ~location:(node_loc n)
                     "transition %S leaves a terminal state (to state #%d)" label t))
            n.succs)
      ns
  in
  let confusion =
    List.filter_map
      (fun n ->
        if not (is_terminal n.cls) then None
        else
          let other = match n.cls with Redeemed -> Refunded | _ -> Redeemed in
          let reach = reachable_from a n.id in
          let confused =
            (* ac3-lint: allow D001 — commutative boolean-or over the reach set *)
            Hashtbl.fold
              (fun id () acc -> acc || (Hashtbl.find a.table id).cls = other)
              reach false
          in
          if confused then
            Some
              (Diagnostic.error ~rule:"S003-terminal-confusion" ~location:(node_loc n)
                 "an execution path reaches both Redeemed and Refunded: the settlement \
                  decisions are not mutually exclusive")
          else None)
      ns
  in
  let conservation =
    List.filter_map
      (fun n ->
        if Amount.compare n.paid a.deposit > 0 then
          Some
            (Diagnostic.error ~rule:"S004-conservation" ~location:(node_loc n)
               "cumulative payouts %a exceed the locked balance %a" Amount.pp n.paid Amount.pp
               a.deposit)
        else if is_terminal n.cls && not (Amount.equal n.paid a.deposit) then
          Some
            (Diagnostic.error ~rule:"S004-conservation" ~location:(node_loc n)
               "terminal state released %a of the locked %a: the difference is stranded in \
                the contract"
               Amount.pp n.paid Amount.pp a.deposit)
        else None)
      ns
  in
  let misrouted =
    List.filter_map
      (fun n ->
        if Amount.compare n.stray Amount.zero > 0 then
          Some
            (Diagnostic.error ~rule:"S007-misrouted-payout" ~location:(node_loc n)
               "%a of the payouts on the path here went to an address other than the \
                settlement payee: funds are misrouted even though the totals balance"
               Amount.pp n.stray)
        else None)
      ns
  in
  let trunc =
    if a.was_truncated then
      [
        Diagnostic.warning ~rule:"S005-truncated" ~location:(qual "automaton")
          "exploration hit the node bound; the verdict covers only the explored prefix";
      ]
    else []
  in
  (summary :: stuck) @ absorbing @ confusion @ conservation @ misrouted @ trunc

let verify ?name spec =
  match explore spec with
  | Error e ->
      let loc = match name with None -> "deployment" | Some c -> c ^ ": deployment" in
      [
        Diagnostic.error ~rule:"S006-init-rejected" ~location:loc
          "the contract rejected its own deployment: %s" e;
      ]
  | Ok a -> check ?name a
