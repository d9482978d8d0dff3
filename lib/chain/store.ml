(* Block store: the full block tree of one node, with most-work tip
   selection and reorganizations.

   Every received block is kept (valid headers only); the active chain is
   the branch with the most cumulative proof-of-work, ties broken by
   arrival order — the longest-chain rule the paper relies on for fork
   resolution (Sec 4.2). Connecting a block executes it against the
   ledger; a branch whose block fails execution is marked invalid and the
   previous chain is restored. *)

module Hex = Ac3_crypto.Hex

type entry = {
  block : Block.t;
  hash : string;
  cum_work : float;
  seq : int; (* arrival order, breaks work ties *)
  mutable invalid : bool;
}

(* One Call transaction on the active chain, as seen by the per-contract
   call index. *)
type call_rec = { call_txid : string; call_fn : string; call_args : Value.t; call_height : int }

type t = {
  params : Params.t;
  registry : Contract_iface.registry;
  blocks : (string, entry) Hashtbl.t; (* by header hash *)
  mutable tip : string;
  active : (string, int) Hashtbl.t; (* hash -> height, active chain only *)
  by_height : (int, string) Hashtbl.t; (* height -> hash, active chain only *)
  tx_index : (string, string * int) Hashtbl.t; (* txid -> (block hash, index), active *)
  (* contract id -> its Call transactions on the active chain, newest
     first. Maintained incrementally by connect/disconnect, so protocol
     polls ([find_call]/[calls_on], the hottest loops under many-swap
     load) cost O(calls on that contract) instead of a scan over every
     transaction of the active chain. *)
  call_index : (string, call_rec list) Hashtbl.t;
  undo_data : (string, Ledger.undo) Hashtbl.t; (* for connected blocks *)
  ledger : Ledger.t;
  mutable next_seq : int;
  orphans : (string, Block.t list) Hashtbl.t; (* parent hash -> waiting blocks *)
  genesis_hash : string;
  (* Notified on every successful reorganization with the blocks that were
     connected/disconnected (oldest-first); nodes use it to maintain their
     mempools. *)
  mutable on_reorg : (connected:Block.t list -> disconnected:Block.t list -> unit) option;
}

type add_result =
  | Added of { connected : Block.t list; disconnected : Block.t list }
  | Duplicate
  | Orphaned
  | Invalid of string

let target t = Pow.target_of_bits t.params.Params.pow_bits

(* Record a connected block's transactions in the tx index. *)
let index_txs t (block : Block.t) hash =
  List.iteri
    (fun i (tx : Tx.t) -> Hashtbl.replace t.tx_index (Tx.txid tx) (hash, i))
    block.Block.txs

let create ~params ~registry =
  let genesis =
    Block.genesis ~premine:params.Params.premine ~chain:params.Params.chain_id ~time:0.0
      ~target:(Pow.target_of_bits params.Params.pow_bits) ()
  in
  let ghash = Block.hash genesis in
  let ledger = Ledger.create ~params ~registry in
  (match Ledger.apply_block ledger genesis with
  | Ok (undo, _) ->
      let t =
        {
          params;
          registry;
          blocks = Hashtbl.create 256;
          tip = ghash;
          active = Hashtbl.create 256;
          by_height = Hashtbl.create 256;
          tx_index = Hashtbl.create 256;
          call_index = Hashtbl.create 256;
          undo_data = Hashtbl.create 256;
          ledger;
          next_seq = 1;
          orphans = Hashtbl.create 16;
          genesis_hash = ghash;
          on_reorg = None;
        }
      in
      Hashtbl.replace t.blocks ghash
        { block = genesis; hash = ghash; cum_work = 0.0; seq = 0; invalid = false };
      Hashtbl.replace t.active ghash 0;
      Hashtbl.replace t.by_height 0 ghash;
      Hashtbl.replace t.undo_data ghash undo;
      index_txs t genesis ghash;
      t
  | Error e -> invalid_arg ("Store.create: genesis failed to apply: " ^ e))

let genesis t = (Hashtbl.find t.blocks t.genesis_hash).block

let genesis_hash t = t.genesis_hash

let params t = t.params

let set_on_reorg t f = t.on_reorg <- Some f

let ledger t = t.ledger

let tip t = (Hashtbl.find t.blocks t.tip).block

let tip_hash t = t.tip

let tip_height t = (tip t).Block.header.Block.height

let find t hash = Option.map (fun e -> e.block) (Hashtbl.find_opt t.blocks hash)

let block_at_height t h =
  Option.bind (Hashtbl.find_opt t.by_height h) (fun hash -> find t hash)

let is_active t hash = Hashtbl.mem t.active hash

(* Transaction lookup on the active chain. *)
let find_tx t txid =
  match Hashtbl.find_opt t.tx_index txid with
  | None -> None
  | Some (bhash, index) -> (
      match Hashtbl.find_opt t.blocks bhash with
      | None -> None
      | Some e -> Some (e.block, index))

(* Number of blocks on top of (and including) the block holding [txid];
   0 when unconfirmed. This is the paper's depth-d finality measure. *)
let confirmations t txid =
  match find_tx t txid with
  | None -> 0
  | Some (block, _) -> tip_height t - block.Block.header.Block.height + 1

(* Headers of the active chain from height [from_] to the tip, ascending. *)
let headers_from t ~from_ =
  let th = tip_height t in
  let rec collect h acc =
    if h < from_ then acc
    else
      match block_at_height t h with
      | None -> acc
      | Some b -> collect (h - 1) (b.Block.header :: acc)
  in
  if from_ > th then [] else collect th []

(* --- Connect / disconnect ------------------------------------------- *)

(* Record a block's Call transactions in the call index. Prepending in
   tx order keeps each per-contract list newest-first with in-block
   order recovered by the final reverse in [calls_on]. *)
let index_calls t (block : Block.t) ~height =
  List.iter
    (fun (tx : Tx.t) ->
      match tx.Tx.payload with
      | Tx.Call c ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt t.call_index c.contract_id) in
          Hashtbl.replace t.call_index c.contract_id
            ({
               call_txid = Tx.txid tx;
               call_fn = c.fn;
               call_args = c.args;
               call_height = height;
             }
            :: prev)
      | Tx.Transfer | Tx.Deploy _ | Tx.Coinbase _ -> ())
    block.Block.txs

(* Drop the index entries contributed by a block being disconnected.
   Only tips disconnect, so every indexed call at [height] belongs to
   this block and sits at the head of its contract's list. *)
let unindex_calls t (block : Block.t) ~height =
  List.iter
    (fun (tx : Tx.t) ->
      match tx.Tx.payload with
      | Tx.Call c -> (
          match Hashtbl.find_opt t.call_index c.contract_id with
          | None -> ()
          | Some recs -> (
              match List.filter (fun r -> r.call_height <> height) recs with
              | [] -> Hashtbl.remove t.call_index c.contract_id
              | kept -> Hashtbl.replace t.call_index c.contract_id kept))
      | Tx.Transfer | Tx.Deploy _ | Tx.Coinbase _ -> ())
    block.Block.txs

let connect_block t entry =
  match Ledger.apply_block t.ledger entry.block with
  | Error e -> Error e
  | Ok (undo, events) ->
      let h = entry.block.Block.header.Block.height in
      Hashtbl.replace t.active entry.hash h;
      Hashtbl.replace t.by_height h entry.hash;
      Hashtbl.replace t.undo_data entry.hash undo;
      index_txs t entry.block entry.hash;
      index_calls t entry.block ~height:h;
      t.tip <- entry.hash;
      Ok events

let disconnect_tip t =
  let e = Hashtbl.find t.blocks t.tip in
  let undo = Hashtbl.find t.undo_data t.tip in
  Ledger.undo_block t.ledger undo;
  let h = e.block.Block.header.Block.height in
  Hashtbl.remove t.active e.hash;
  Hashtbl.remove t.by_height h;
  Hashtbl.remove t.undo_data e.hash;
  List.iter (fun (tx : Tx.t) -> Hashtbl.remove t.tx_index (Tx.txid tx)) e.block.Block.txs;
  unindex_calls t e.block ~height:h;
  t.tip <- e.block.Block.header.Block.parent;
  e.block

(* Path of entries from [hash] (exclusive of the active ancestor) down to
   the first active ancestor; returned oldest-first. *)
let path_to_active t hash =
  let rec walk h acc =
    if is_active t h then Some acc
    else
      match Hashtbl.find_opt t.blocks h with
      | None -> None
      | Some e -> walk e.block.Block.header.Block.parent (e :: acc)
  in
  walk hash []

(* Make [new_tip_hash] the active tip. Returns (connected, disconnected)
   blocks, oldest-first. On execution failure of any new block, restores
   the previous chain and returns an error with the offender marked
   invalid. *)
let reorganize t new_tip_hash =
  match path_to_active t new_tip_hash with
  | None -> Error "new tip does not attach to the tree"
  | Some to_connect ->
      let fork_point =
        match to_connect with
        | [] -> t.tip
        | first :: _ -> first.block.Block.header.Block.parent
      in
      let disconnected = ref [] in
      while not (String.equal t.tip fork_point) do
        disconnected := disconnect_tip t :: !disconnected
      done;
      (* !disconnected is oldest-first. *)
      let rec connect_all connected = function
        | [] -> Ok (List.rev connected)
        | entry :: rest -> (
            match connect_block t entry with
            | Ok _events -> connect_all (entry.block :: connected) rest
            | Error e ->
                entry.invalid <- true;
                (* Roll back what we connected, then restore the old chain. *)
                List.iter (fun _ -> ignore (disconnect_tip t)) connected;
                List.iter
                  (fun b ->
                    let eb = Hashtbl.find t.blocks (Block.hash b) in
                    match connect_block t eb with
                    | Ok _ -> ()
                    | Error e' ->
                        failwith
                          (Printf.sprintf "Store.reorganize: cannot restore previous chain: %s" e'))
                  !disconnected;
                Error (Printf.sprintf "block %s invalid on connect: %s" (Hex.short entry.hash) e))
      in
      (match connect_all [] to_connect with
      | Ok connected ->
          (match t.on_reorg with
          | Some f -> f ~connected ~disconnected:!disconnected
          | None -> ());
          Ok (connected, !disconnected)
      | Error e -> Error e)

(* --- Adding blocks ---------------------------------------------------- *)

let rec add_block t (block : Block.t) : add_result =
  let hash = Block.hash block in
  if Hashtbl.mem t.blocks hash then Duplicate
  else begin
    let header = block.Block.header in
    if not (String.equal header.Block.chain t.params.Params.chain_id) then
      Invalid "wrong chain id"
    else if not (String.equal header.Block.target (target t)) then Invalid "wrong target"
    else if not (Block.header_pow_ok header) then Invalid "proof of work not met"
    else if not (Block.body_ok block) then Invalid "malformed body"
    else if
      List.length block.Block.txs - 1 > t.params.Params.block_capacity
    then Invalid "block over capacity"
    else begin
      match Hashtbl.find_opt t.blocks header.Block.parent with
      | None ->
          (* Parent unknown: stash until it arrives. *)
          let waiting =
            Option.value ~default:[] (Hashtbl.find_opt t.orphans header.Block.parent)
          in
          Hashtbl.replace t.orphans header.Block.parent (block :: waiting);
          Orphaned
      | Some parent ->
          if header.Block.height <> parent.block.Block.header.Block.height + 1 then
            Invalid "height does not extend parent"
          else if parent.invalid then Invalid "extends an invalid block"
          else begin
            let entry =
              {
                block;
                hash;
                cum_work = parent.cum_work +. Pow.work_of_target header.Block.target;
                seq = t.next_seq;
                invalid = false;
              }
            in
            t.next_seq <- t.next_seq + 1;
            Hashtbl.replace t.blocks hash entry;
            let current = Hashtbl.find t.blocks t.tip in
            let result =
              if entry.cum_work > current.cum_work then begin
                match reorganize t hash with
                | Ok (connected, disconnected) -> Added { connected; disconnected }
                | Error e -> Invalid e
              end
              else Added { connected = []; disconnected = [] }
            in
            (* Wake any orphans waiting on this block. *)
            (match Hashtbl.find_opt t.orphans hash with
            | None -> ()
            | Some waiting ->
                Hashtbl.remove t.orphans hash;
                List.iter (fun b -> ignore (add_block t b)) (List.rev waiting));
            result
          end
    end
  end

(* Find the first successful call of [fn] on [contract_id] on the active
   chain: (txid, height). Participants use this to locate the SCw
   state-change transaction they must build evidence about. Served from
   the incremental call index: O(calls on this contract), independent of
   chain length and total contract count. *)
let find_call t ~contract_id ~fn =
  match Hashtbl.find_opt t.call_index contract_id with
  | None -> None
  | Some recs ->
      (* newest-first, so fold keeps the oldest match. *)
      List.fold_left
        (fun acc r -> if String.equal r.call_fn fn then Some (r.call_txid, r.call_height) else acc)
        None recs

(* All successful calls on [contract_id] on the active chain, with their
   function names and arguments — used to extract revealed hashlock
   secrets from redeem transactions. Oldest-first, from the call index. *)
let calls_on t ~contract_id =
  match Hashtbl.find_opt t.call_index contract_id with
  | None -> []
  | Some recs -> List.rev_map (fun r -> (r.call_txid, r.call_fn, r.call_args)) recs
