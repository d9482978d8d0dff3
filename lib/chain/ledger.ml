(* The ledger: UTXO set plus contract store, with checked block
   application and exact undo for reorganizations.

   Validation enforces the storage-layer rules of the paper's Sec 2.3:
   users transact only on assets they own (address = hash of the signing
   key), no double spends, value conservation (inputs = outputs + fee +
   contract deposit), and miners execute contract code and record state
   changes in the chain. *)

module Hex = Ac3_crypto.Hex

type contract = {
  code_id : string;
  state : Value.t;
  balance : Amount.t;
}

type t = {
  params : Params.t;
  registry : Contract_iface.registry;
  utxos : Tx.output Outpoint.Table.t;
  (* Secondary index: address -> its live outpoints. Maintained by
     [utxo_put]/[utxo_delete] below so [balance_of]/[utxos_of] touch only
     the owner's coins instead of scanning the whole UTXO set — under
     many-swap load, coin selection is a per-poll hot path. The index
     keeps one table per address that was ever funded: spending an
     address's last coin leaves its table empty, not removed, so the
     undo of a trial admission does not rebuild it. Its readers treat an
     empty table as an absent one. *)
  by_addr : (string, Tx.output Outpoint.Table.t) Hashtbl.t;
  contracts : (string, contract) Hashtbl.t;
  mutable height : int; (* height of the last applied block; -1 = empty *)
}

type event = { contract_id : string; name : string; payload : Value.t }

let create ~params ~registry =
  {
    params;
    registry;
    utxos = Outpoint.Table.create 256;
    by_addr = Hashtbl.create 64;
    contracts = Hashtbl.create 16;
    height = -1;
  }

let height t = t.height

let utxo t outpoint = Outpoint.Table.find_opt t.utxos outpoint

let contract t id = Hashtbl.find_opt t.contracts id

(* The only two mutators of the UTXO set: every add/remove goes through
   here so [by_addr] can never drift from [utxos]. *)
let bucket t addr =
  match Hashtbl.find_opt t.by_addr addr with
  | Some b -> b
  | None ->
      let b = Outpoint.Table.create 8 in
      Hashtbl.replace t.by_addr addr b;
      b

let utxo_put t op (o : Tx.output) =
  (match Outpoint.Table.find_opt t.utxos op with
  | Some (prev : Tx.output) when not (String.equal prev.addr o.addr) -> (
      match Hashtbl.find_opt t.by_addr prev.addr with
      | Some b -> Outpoint.Table.remove b op
      | None -> ())
  | _ -> ());
  Outpoint.Table.replace t.utxos op o;
  Outpoint.Table.replace (bucket t o.addr) op o

let utxo_delete t op =
  match Outpoint.Table.find_opt t.utxos op with
  | None -> ()
  | Some (o : Tx.output) -> (
      Outpoint.Table.remove t.utxos op;
      match Hashtbl.find_opt t.by_addr o.addr with
      | None -> ()
      | Some b -> Outpoint.Table.remove b op)

let balance_of t addr =
  match Hashtbl.find_opt t.by_addr addr with
  | None -> Amount.zero
  | Some b ->
      (* ac3-lint: allow D001 — commutative sum over amounts; fold order cannot change the total *)
      Outpoint.Table.fold (fun _ (o : Tx.output) acc -> Amount.(acc + o.amount)) b Amount.zero

(* Hash order: for order-insensitive callers (sums), which skip the
   list and sort of [utxos_of]. *)
let fold_utxos_of t addr f init =
  match Hashtbl.find_opt t.by_addr addr with
  | None -> init
  | Some b ->
      (* ac3-lint: allow D001 — unordered by contract; callers only sum *)
      Outpoint.Table.fold f b init

(* Sorted by outpoint so callers (wallet coin selection, experiment
   reports) observe the same order on every run. *)
let utxos_of t addr =
  match Hashtbl.find_opt t.by_addr addr with
  | None -> []
  | Some b ->
      (* ac3-lint: allow D001 — unique outpoint keys; sorted by Outpoint.compare below *)
      Outpoint.Table.fold (fun op o acc -> (op, o) :: acc) b []
      |> List.sort (fun (a, _) (b, _) -> Outpoint.compare a b)

(* Total value in circulation: UTXOs plus contract balances. The
   conservation property tests check this only grows by block rewards. *)
let total_supply t =
  let utxo_sum =
    (* ac3-lint: allow D001 — commutative sum over amounts *)
    Outpoint.Table.fold (fun _ (o : Tx.output) acc -> Amount.(acc + o.amount)) t.utxos Amount.zero
  in
  (* ac3-lint: allow D001 — commutative sum over amounts *)
  Hashtbl.fold (fun _ c acc -> Amount.(acc + c.balance)) t.contracts utxo_sum

(* --- Transaction validation and execution --------------------------- *)

(* What one applied transaction changed, enough to reverse it exactly:
   the outputs it spent, the outpoints it created and each touched
   contract's previous record. *)
type tx_undo = {
  spent : (Outpoint.t * Tx.output) list;
  created : Outpoint.t list;
  contracts_prev : (string * contract option) list;
}

(* A block's undo is its transactions' undos, newest first (the coinbase
   credit is the newest), so replaying them in list order walks the
   block backwards and a transaction spending an earlier one's output in
   the same block is reversed before that output is deleted. *)
type undo = { txs : tx_undo list; prev_height : int }

let error fmt = Printf.ksprintf (fun s -> Error s) fmt

let rec no_duplicate_outpoints = function
  | [] -> true
  | (i : Tx.input) :: rest ->
      (not (List.exists (fun (j : Tx.input) -> Outpoint.equal i.outpoint j.outpoint) rest))
      && no_duplicate_outpoints rest

(* Execute a validated non-coinbase transaction against the ledger,
   mutating it. Returns undo data and the contract events it emitted,
   or an error with no mutation. *)
let apply_tx t ~block_height ~block_time (tx : Tx.t) : (tx_undo * event list, string) result =
  let txid = Tx.txid tx in
  if Tx.is_coinbase tx then error "coinbase outside block head"
  else if not (String.equal tx.chain t.params.chain_id) then
    error "wrong chain id %s" tx.chain
  else if not (no_duplicate_outpoints tx.inputs) then error "duplicate input outpoint"
  else if tx.inputs = [] then error "no inputs"
  else if t.params.verify_signatures && not (Tx.verify_signatures tx) then
    error "invalid signature"
  else begin
    (* Resolve and ownership-check the inputs. *)
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | (i : Tx.input) :: rest -> (
          match utxo t i.outpoint with
          | None -> error "input %a missing or spent" (fun () -> Fmt.str "%a" Outpoint.pp) i.outpoint
          | Some o ->
              if not (String.equal o.addr i.address) then
                error "input %a not owned by signer" (fun () -> Fmt.str "%a" Outpoint.pp) i.outpoint
              else resolve ((i.outpoint, o) :: acc) rest)
    in
    match resolve [] tx.inputs with
    | Error e -> Error e
    | Ok resolved -> (
        let in_total = Amount.sum (List.map (fun (_, (o : Tx.output)) -> o.amount) resolved) in
        let deposit = Tx.deposit tx in
        let required = Params.required_fee t.params tx.payload in
        let declared = Tx.output_total tx in
        if Amount.compare tx.fee required < 0 then
          error "fee %a below required %a" (fun () -> Amount.to_string) tx.fee
            (fun () -> Amount.to_string) required
        else if not (Amount.equal in_total Amount.(declared + tx.fee + deposit)) then
          error "value not conserved: in=%a out=%a fee=%a deposit=%a"
            (fun () -> Amount.to_string) in_total
            (fun () -> Amount.to_string) declared
            (fun () -> Amount.to_string) tx.fee
            (fun () -> Amount.to_string) deposit
        else begin
          let sender = (List.hd tx.inputs).pubkey in
          (* Run the contract payload, computing extra payout outputs and
             contract-store updates, without mutating yet. *)
          let contract_result =
            match tx.payload with
            | Tx.Transfer -> Ok ([], [], [])
            | Tx.Coinbase _ -> assert false
            | Tx.Deploy { code_id; args; deposit } -> (
                match Contract_iface.find t.registry code_id with
                | None -> error "unknown code id %S" code_id
                | Some (module C : Contract_iface.CODE) -> (
                    let contract_id = Contract_iface.contract_id_of_deploy ~txid in
                    if Hashtbl.mem t.contracts contract_id then error "contract id collision"
                    else
                      let ctx : Contract_iface.ctx =
                        {
                          chain_id = t.params.chain_id;
                          block_height;
                          block_time;
                          txid;
                          sender;
                          value = deposit;
                          contract_id;
                          balance = deposit;
                        }
                      in
                      match C.init ctx args with
                      | Error e -> error "constructor rejected: %s" e
                      | Ok state ->
                          Ok ([], [ (contract_id, Some { code_id; state; balance = deposit }) ], [])))
            | Tx.Call { contract_id; fn; args; deposit } -> (
                match contract t contract_id with
                | None -> error "unknown contract %s" (Hex.short contract_id)
                | Some c -> (
                    match Contract_iface.find t.registry c.code_id with
                    | None -> error "code %S vanished from registry" c.code_id
                    | Some (module C : Contract_iface.CODE) -> (
                        let balance = Amount.(c.balance + deposit) in
                        let ctx : Contract_iface.ctx =
                          {
                            chain_id = t.params.chain_id;
                            block_height;
                            block_time;
                            txid;
                            sender;
                            value = deposit;
                            contract_id;
                            balance;
                          }
                        in
                        match C.call ctx ~state:c.state ~fn ~args with
                        | Error e -> error "call %s rejected: %s" fn e
                        | Ok outcome ->
                            let payout_total =
                              Amount.sum (List.map snd outcome.Contract_iface.payouts)
                            in
                            if Amount.compare payout_total balance > 0 then
                              error "payouts exceed contract balance"
                            else
                              let c' =
                                {
                                  c with
                                  state = outcome.Contract_iface.state;
                                  balance = Amount.(balance - payout_total);
                                }
                              in
                              let payout_outputs =
                                List.map
                                  (fun (addr, amount) -> ({ addr; amount } : Tx.output))
                                  outcome.Contract_iface.payouts
                              in
                              let events =
                                List.map
                                  (fun (name, payload) -> { contract_id; name; payload })
                                  outcome.Contract_iface.events
                              in
                              Ok (payout_outputs, [ (contract_id, Some c') ], events))))
          in
          match contract_result with
          | Error e -> Error e
          | Ok (payout_outputs, contract_updates, events) ->
              (* All checks passed: mutate. *)
              List.iter (fun (op, _) -> utxo_delete t op) resolved;
              let all_outputs = tx.outputs @ payout_outputs in
              let created =
                List.mapi
                  (fun i (o : Tx.output) ->
                    let op = Outpoint.create ~txid ~index:i in
                    utxo_put t op o;
                    op)
                  all_outputs
              in
              let contracts_prev =
                List.map
                  (fun (id, c') ->
                    let prev = contract t id in
                    (match c' with
                    | Some c -> Hashtbl.replace t.contracts id c
                    | None -> Hashtbl.remove t.contracts id);
                    (id, prev))
                  contract_updates
              in
              Ok ({ spent = resolved; created; contracts_prev }, events)
        end)
  end

let undo_tx t (u : tx_undo) =
  List.iter (fun op -> utxo_delete t op) u.created;
  List.iter (fun (op, o) -> utxo_put t op o) u.spent;
  List.iter
    (fun (id, prev) ->
      match prev with
      | Some c -> Hashtbl.replace t.contracts id c
      | None -> Hashtbl.remove t.contracts id)
    u.contracts_prev

(* --- Block application ----------------------------------------------- *)

(* The most a coinbase over [txs] may pay: the block reward plus their
   fees (Sec 2.3). Builders pay exactly this; [apply_block] refuses more. *)
let max_reward (params : Params.t) txs =
  Amount.(params.block_reward + sum (List.map (fun (tx : Tx.t) -> tx.Tx.fee) txs))

(* Apply a block's transactions. The caller (the chain store) has already
   validated the header and body structure. On error the ledger is left
   exactly as it was. *)
let apply_block t (block : Block.t) : (undo * event list, string) result =
  let header = block.Block.header in
  if header.Block.height <> t.height + 1 then
    error "block height %d does not extend ledger height %d" header.Block.height t.height
  else begin
    match block.Block.txs with
    | [] -> error "empty block"
    | coinbase :: rest -> (
        if not (Tx.is_coinbase coinbase) then error "block head is not coinbase"
        else begin
          (* Genesis is a chain constant: its premine is exempt from the
             reward limit. *)
          let max_reward = max_reward t.params rest in
          if header.Block.height > 0 && Amount.compare (Tx.output_total coinbase) max_reward > 0 then
            error "coinbase pays %s, max %s"
              (Amount.to_string (Tx.output_total coinbase))
              (Amount.to_string max_reward)
          else begin
            (* Apply txs in order, rolling back on failure. [undos] is
               newest first, the order [undo_block] replays. *)
            let rec go undos events = function
              | [] -> Ok (undos, List.rev events)
              | tx :: txs -> (
                  match
                    apply_tx t ~block_height:header.Block.height ~block_time:header.Block.time tx
                  with
                  | Ok (u, evs) -> go (u :: undos) (List.rev_append evs events) txs
                  | Error e ->
                      List.iter (undo_tx t) undos;
                      error "tx %s invalid: %s" (Hex.short (Tx.txid tx)) e)
            in
            match go [] [] rest with
            | Error e -> Error e
            | Ok (undos, events) ->
                (* Credit the coinbase outputs. *)
                let cb_id = Tx.txid coinbase in
                let created =
                  List.mapi
                    (fun i (o : Tx.output) ->
                      let op = Outpoint.create ~txid:cb_id ~index:i in
                      utxo_put t op o;
                      op)
                    coinbase.Tx.outputs
                in
                let prev_height = t.height in
                t.height <- header.Block.height;
                let coinbase_undo = { spent = []; created; contracts_prev = [] } in
                Ok ({ txs = coinbase_undo :: undos; prev_height }, events)
          end
        end)
  end

let undo_block t (u : undo) =
  List.iter (undo_tx t) u.txs;
  t.height <- u.prev_height

(* Lightweight admissibility check for the mempool: would this tx apply on
   the current state? Executes against the ledger and rolls right back. *)
let check_tx t ~block_time (tx : Tx.t) : (unit, string) result =
  match apply_tx t ~block_height:(t.height + 1) ~block_time tx with
  | Ok (u, _) ->
      undo_tx t u;
      Ok ()
  | Error e -> Error e

(* Greedy block assembly: keep the prefix-consistent subset of candidate
   transactions that applies in order on the current state. Leaves the
   ledger unchanged. *)
let select_valid t ~block_height ~block_time txs =
  let undos = ref [] in
  let selected =
    List.filter
      (fun tx ->
        match apply_tx t ~block_height ~block_time tx with
        | Ok (u, _) ->
            undos := u :: !undos;
            true
        | Error _ -> false)
      txs
  in
  List.iter (undo_tx t) !undos;
  selected

(* Canonical encoding of the full ledger state (UTXO set + contracts +
   height), only ever hashed by [state_digest]. *)
let encode_state w t =
  let module Codec = Ac3_crypto.Codec in
  Codec.Writer.int w t.height;
  let utxos =
    (* ac3-lint: allow D001 — unique outpoint keys; sorted by Outpoint.compare below *)
    Outpoint.Table.fold (fun op o acc -> (op, o) :: acc) t.utxos []
    |> List.sort (fun (a, _) (b, _) -> Outpoint.compare a b)
  in
  Codec.Writer.list w
    (fun w (op, (o : Tx.output)) ->
      Outpoint.encode w op;
      Codec.Writer.string w o.addr;
      Amount.encode w o.amount)
    utxos;
  let contracts =
    (* ac3-lint: allow D001 — unique contract-id keys; sorted by String.compare below *)
    Hashtbl.fold (fun id c acc -> (id, c) :: acc) t.contracts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Codec.Writer.list w
    (fun w (id, c) ->
      Codec.Writer.string w id;
      Codec.Writer.string w c.code_id;
      Value.encode w c.state;
      Amount.encode w c.balance)
    contracts

(* Digest of [encode_state]. Two ledgers agree iff their digests agree;
   the reorg equivalence property tests rely on this. *)
let state_digest t =
  let ctx = Ac3_crypto.Sha256.init () in
  Ac3_crypto.Codec.feed [ ctx ] encode_state t;
  Ac3_crypto.Sha256.finalize ctx
