(* Mempool: transactions waiting for inclusion, in arrival order.

   Admission re-validates against the node's current ledger; blocks take
   transactions oldest-first up to the chain's capacity (which is how the
   simulator models per-chain throughput limits).

   Two additions harden the pool for sustained many-swap load:

   - a multiset index of the outpoints spent by live entries, so wallets
     can ask "is this coin already promised to a pending tx?" in O(1)
     instead of scanning [to_list] on every coin selection;
   - an optional [capacity]: when full, admission evicts the lowest
     (class, fee) entry, where settlement-critical payloads outrank
     plain value movement (Call > Deploy > Transfer). A newcomer that
     does not strictly beat the cheapest resident is rejected instead.
     Unbounded pools (the default) behave exactly as before. *)

type entry = { tx : Tx.t; seq : int }

(* Removal is lazy: the index is authoritative and dead entries are
   swept out of the list only when it is next traversed, keeping
   [remove] O(1) even for block-sized batches. *)
type t = {
  mutable entries : entry list; (* newest first; may contain dead entries *)
  mutable entries_len : int; (* length of [entries], dead included *)
  index : (string, entry) Hashtbl.t;
  spent : int Outpoint.Table.t; (* outpoint -> live txs spending it *)
  capacity : int option;
  mutable next_seq : int;
}

let create ?capacity () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Mempool.create: capacity must be >= 1"
  | _ -> ());
  {
    entries = [];
    entries_len = 0;
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

(* A list entry is live iff the index still points at this exact entry —
   plain [mem] would resurrect a stale list node if the same txid were
   ever removed and re-added. *)
let live t e =
  match Hashtbl.find_opt t.index (Tx.txid e.tx) with Some e' -> e' == e | None -> false

let sweep t =
  if t.entries_len > 16 && t.entries_len > 2 * Hashtbl.length t.index then begin
    t.entries <- List.filter (live t) t.entries;
    t.entries_len <- List.length t.entries
  end

let remove t txid =
  (match Hashtbl.find_opt t.index txid with
  | None -> ()
  | Some e -> untrack_spent t e.tx);
  Hashtbl.remove t.index txid;
  sweep t

(* Strict lexicographic (class, fee) order; used both to pick the victim
   and to decide whether a newcomer beats it. Ties never evict. *)
let beats ~cls_a ~fee_a ~cls_b ~fee_b =
  cls_a > cls_b || (cls_a = cls_b && Amount.compare fee_a fee_b > 0)

(* Lowest (class, fee) live entry; among equals the newest goes first so
   earlier arrivals keep their place. O(live) — only runs on overflow. *)
let victim t =
  (* ac3-lint: allow D001 — min-selection over the total (class, fee, seq) order is fold-order-independent *)
  Hashtbl.fold
    (fun _ e acc ->
      match acc with
      | None -> Some e
      | Some best ->
          let ec = priority_class e.tx and bc = priority_class best.tx in
          if
            ec < bc
            || (ec = bc
               && (Amount.compare e.tx.Tx.fee best.tx.Tx.fee < 0
                  || (Amount.equal e.tx.Tx.fee best.tx.Tx.fee && e.seq > best.seq)))
          then Some e
          else acc)
    t.index None

let insert t tx =
  let entry = { tx; seq = t.next_seq } in
  Hashtbl.replace t.index (Tx.txid tx) entry;
  track_spent t tx;
  t.entries <- entry :: t.entries;
  t.entries_len <- t.entries_len + 1;
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
        | Some v
          when beats ~cls_a:(priority_class tx) ~fee_a:tx.Tx.fee
                 ~cls_b:(priority_class v.tx) ~fee_b:v.tx.Tx.fee ->
            remove t (Tx.txid v.tx);
            insert t tx;
            Ok [ v.tx ]
        | Some _ | None -> Error "mempool full")
    | _ ->
        insert t tx;
        Ok []

(* Oldest-first candidates for the next block. The caller filters out
   transactions that no longer apply. [entries] is newest-first with
   monotonically increasing [seq], so a reverse IS the seq-sort — no
   O(n log n) comparison sort on the per-block hot path. *)
let candidates t ~limit =
  let live = List.filter (live t) t.entries in
  t.entries <- live;
  t.entries_len <- List.length live;
  let oldest_first = List.rev live in
  let rec take n = function
    | [] -> []
    | e :: rest -> if n = 0 then [] else e.tx :: take (n - 1) rest
  in
  take limit oldest_first

let to_list t = List.filter_map (fun e -> if live t e then Some e.tx else None) t.entries
