(* Mempool: transactions waiting for inclusion, in arrival order.

   Admission re-validates against the node's current ledger; blocks take
   transactions oldest-first up to the chain's capacity (which is how the
   simulator models per-chain throughput limits).

   Two additions harden the pool for sustained many-swap load:

   - a multiset index of the outpoints spent by pooled transactions, so
     wallets can ask "is this coin already promised to a pending tx?" in
     O(1) instead of scanning the pool on every coin selection;
   - an optional [capacity]: when full, admission evicts the lowest
     (class, fee) entry, where settlement-critical payloads outrank
     plain value movement (Call > Deploy > Transfer). A newcomer that
     does not strictly beat the cheapest resident is rejected instead.
     Unbounded pools (the default) behave exactly as before. *)

module By_arrival = Map.Make (Int)

type t = {
  mutable order : Tx.t By_arrival.t; (* arrival number -> tx *)
  index : (string, int) Hashtbl.t; (* txid -> its arrival number *)
  spent : int Outpoint.Table.t; (* outpoint -> pooled txs spending it *)
  capacity : int option;
  mutable next_seq : int;
}

let create ?capacity () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Mempool.create: capacity must be >= 1"
  | _ -> ());
  {
    order = By_arrival.empty;
    index = Hashtbl.create 64;
    spent = Outpoint.Table.create 64;
    capacity;
    next_seq = 0;
  }

let size t = Hashtbl.length t.index

let mem t txid = Hashtbl.mem t.index txid

let spends t outpoint = Outpoint.Table.mem t.spent outpoint

(* Eviction priority: settlement calls (redeem/refund) outrank contract
   deployments, which outrank plain transfers. Coinbases never enter the
   pool, but give them the floor class to keep [priority_class] total. *)
let priority_class tx =
  match tx.Tx.payload with
  | Tx.Call _ -> 2
  | Tx.Deploy _ -> 1
  | Tx.Transfer -> 0
  | Tx.Coinbase _ -> 0

let track_spent t tx =
  List.iter
    (fun (i : Tx.input) ->
      let n = Option.value (Outpoint.Table.find_opt t.spent i.outpoint) ~default:0 in
      Outpoint.Table.replace t.spent i.outpoint (n + 1))
    tx.Tx.inputs

let untrack_spent t tx =
  List.iter
    (fun (i : Tx.input) ->
      match Outpoint.Table.find_opt t.spent i.outpoint with
      | None -> ()
      | Some 1 -> Outpoint.Table.remove t.spent i.outpoint
      | Some n -> Outpoint.Table.replace t.spent i.outpoint (n - 1))
    tx.Tx.inputs

let remove t txid =
  match Hashtbl.find_opt t.index txid with
  | None -> ()
  | Some seq ->
      untrack_spent t (By_arrival.find seq t.order);
      Hashtbl.remove t.index txid;
      t.order <- By_arrival.remove seq t.order

(* Strict lexicographic (class, fee) order; used both to pick the victim
   and to decide whether a newcomer beats it. Ties never evict. *)
let beats a b =
  let ca = priority_class a and cb = priority_class b in
  ca > cb || (ca = cb && Amount.compare a.Tx.fee b.Tx.fee > 0)

(* Lowest (class, fee) entry; among equals the newest goes first so
   earlier arrivals keep their place. The scan runs oldest first, so a
   later entry replaces the pick unless it strictly beats it. O(size) —
   only runs on overflow. *)
let victim t =
  By_arrival.fold
    (fun _ tx pick -> match pick with Some v when beats tx v -> pick | _ -> Some tx)
    t.order None

let insert t tx =
  Hashtbl.replace t.index (Tx.txid tx) t.next_seq;
  t.order <- By_arrival.add t.next_seq tx t.order;
  track_spent t tx;
  t.next_seq <- t.next_seq + 1

(* Returns the evicted transactions (at most one) so the node can count
   overflow pressure; [Error] when the pool is full of better-paying
   work and the newcomer loses. *)
let add t tx =
  if Hashtbl.mem t.index (Tx.txid tx) then Error "already in mempool"
  else
    match t.capacity with
    | Some cap when Hashtbl.length t.index >= cap -> (
        match victim t with
        | Some v when beats tx v ->
            remove t (Tx.txid v);
            insert t tx;
            Ok [ v ]
        | Some _ | None -> Error "mempool full")
    | _ ->
        insert t tx;
        Ok []

(* Oldest-first candidates for the next block. The caller filters out
   transactions that no longer apply. *)
let candidates t ~limit =
  By_arrival.to_seq t.order |> Seq.take limit |> Seq.map snd |> List.of_seq
