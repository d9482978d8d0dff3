(* Wallet: an identity attached to a node, with coin selection, change
   handling, and convenience builders for the three payload kinds.

   Participants in the cross-chain protocols drive their per-chain
   interactions through wallets. *)

module Keys = Ac3_crypto.Keys

type t = { identity : Keys.t; node : Node.t; mutable nonce : int64 }

let create ~identity ~node = { identity; node; nonce = 0L }

let identity t = t.identity

let node t = t.node

let address t = Keys.address t.identity

let public t = Keys.public t.identity

let balance t = Node.balance_of t.node (address t)

let next_nonce t =
  let n = t.nonce in
  t.nonce <- Int64.add n 1L;
  n

(* Greedy coin selection over the wallet's UTXOs at the node's tip.
   Outpoints already spent by a transaction pending in the node's mempool
   (typically this wallet's own earlier submission in the same tick, or a
   sibling wallet of the same identity driving another concurrent swap)
   are off limits: reusing one would build a double spend that miners
   silently drop. The check is an O(1) probe of the mempool's spent-
   outpoint index per candidate coin, so identities reused across many
   concurrent swaps don't pay a pool scan on every selection. A refusal
   reports what the walk saw: the spendable total and the amount locked
   by pending spends. *)
let select_coins t ~total =
  let mempool = Node.mempool t.node in
  let rec pick acc covered locked = function
    | _ when Amount.compare covered total >= 0 -> Ok (List.rev acc, Amount.(covered - total))
    | [] -> Error (covered, locked)
    | (op, (o : Tx.output)) :: rest ->
        if Mempool.spends mempool op then pick acc covered Amount.(locked + o.amount) rest
        else pick (op :: acc) Amount.(covered + o.amount) locked rest
  in
  (* [Ledger.utxos_of] is already outpoint-sorted, so selection order is
     deterministic and runs replay identically. *)
  pick [] Amount.zero Amount.zero (Ledger.utxos_of (Node.ledger t.node) (address t))

(* Build a transaction paying [outputs], carrying [payload ()], with any
   excess returned to the wallet as change. [payload] is forced only
   once coin selection succeeds, so a refused build never encodes a
   contract's arguments. On chains that verify signatures the inputs
   are signed (consuming MSS signature budget); on
   [verify_signatures = false] chains the wallet emits witness-free
   transactions, so a hot identity can drive an unbounded number of
   swaps in throughput runs without exhausting its key. *)
let build_deferred t ~fee ~deposit ~outputs payload =
  let params = Node.params t.node in
  let declared = Amount.sum (List.map (fun (o : Tx.output) -> o.amount) outputs) in
  let total = Amount.(declared + fee + deposit) in
  match select_coins t ~total with
  | Error (spendable, locked) ->
      Error
        (Printf.sprintf
           "insufficient funds: need %s, have %s spendable (%s locked by pending spends)"
           (Amount.to_string total) (Amount.to_string spendable) (Amount.to_string locked))
  | Ok (coins, change) ->
      let payload = payload () in
      let outputs =
        if Amount.is_zero change then outputs
        else outputs @ [ ({ addr = address t; amount = change } : Tx.output) ]
      in
      let chain = params.Params.chain_id in
      let nonce = next_nonce t in
      if params.Params.verify_signatures then
        let inputs = List.map (fun op -> (op, t.identity)) coins in
        Ok (Tx.make ~chain ~inputs ~outputs ~payload ~fee ~nonce ())
      else
        let inputs = List.map (fun op -> (op, Keys.public t.identity)) coins in
        Ok (Tx.make_unsigned ~chain ~inputs ~outputs ~payload ~fee ~nonce ())

let build t ?(payload = Tx.Transfer) ~outputs () =
  let deposit =
    match payload with
    | Tx.Deploy { deposit; _ } | Tx.Call { deposit; _ } -> deposit
    | Tx.Transfer | Tx.Coinbase _ -> Amount.zero
  in
  build_deferred t
    ~fee:(Params.required_fee (Node.params t.node) payload)
    ~deposit ~outputs
    (fun () -> payload)

(* Submit to the wallet's node. Returns the txid. *)
let submit_built t = function
  | Error e -> Error e
  | Ok tx -> (
      match Node.submit_tx t.node tx with
      | Ok () -> Ok (Tx.txid tx)
      | Error e -> Error e)

let submit t ?payload ~outputs () = submit_built t (build t ?payload ~outputs ())

let pay t ~to_ ~amount = submit t ~outputs:[ ({ addr = to_; amount } : Tx.output) ] ()

let deploy t ~code_id ~args ~deposit =
  let fee = (Node.params t.node).Params.deploy_fee in
  match
    submit_built t
      (build_deferred t ~fee ~deposit ~outputs:[] (fun () ->
           Tx.Deploy { code_id; args = args (); deposit }))
  with
  | Error e -> Error e
  | Ok txid -> Ok (txid, Contract_iface.contract_id_of_deploy ~txid)

let call t ~contract_id ~fn ~args ?(deposit = Amount.zero) () =
  submit t ~payload:(Tx.Call { contract_id; fn; args; deposit }) ~outputs:[] ()

let confirmations t txid = Node.confirmations t.node txid
