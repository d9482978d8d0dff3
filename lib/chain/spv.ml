(* SPV light client (the "light node" of the paper's Sec 4.3).

   Maintains only block headers, organized as a tree with most-work tip
   selection, and verifies transaction inclusion with Merkle proofs at a
   required confirmation depth. One of the three cross-chain validation
   strategies the paper discusses. *)

type entry = { header : Block.header; hash : string; cum_work : float; seq : int }

type t = {
  chain : string;
  target : string;
  headers : (string, entry) Hashtbl.t;
  mutable tip : string;
  mutable next_seq : int;
}

let create ~genesis_header =
  let hash = Block.hash_header genesis_header in
  let t =
    {
      chain = genesis_header.Block.chain;
      target = genesis_header.Block.target;
      headers = Hashtbl.create 256;
      tip = hash;
      next_seq = 1;
    }
  in
  Hashtbl.replace t.headers hash { header = genesis_header; hash; cum_work = 0.0; seq = 0 };
  t

let tip_entry t = Hashtbl.find t.headers t.tip

let tip_header t = (tip_entry t).header

let tip_height t = (tip_header t).Block.height

(* Accept a header if it attaches to the tree with valid PoW; adopt it as
   tip when it carries more cumulative work. *)
let add_header t (h : Block.header) =
  let hash = Block.hash_header h in
  if Hashtbl.mem t.headers hash then Ok `Known
  else if not (String.equal h.Block.chain t.chain) then Error "wrong chain"
  else if not (String.equal h.Block.target t.target) then Error "wrong target"
  else if not (Block.header_pow_ok h) then Error "proof of work not met"
  else
    match Hashtbl.find_opt t.headers h.Block.parent with
    | None -> Error "unknown parent"
    | Some parent ->
        if h.Block.height <> parent.header.Block.height + 1 then
          Error "height does not extend parent"
        else begin
          let entry =
            {
              header = h;
              hash;
              cum_work = parent.cum_work +. Pow.work_of_target h.Block.target;
              seq = t.next_seq;
            }
          in
          t.next_seq <- t.next_seq + 1;
          Hashtbl.replace t.headers hash entry;
          if entry.cum_work > (tip_entry t).cum_work then begin
            t.tip <- hash;
            Ok `New_tip
          end
          else Ok `Accepted
        end

let add_headers t hs =
  List.fold_left
    (fun acc h -> match add_header t h with Ok _ -> acc | Error e -> Error e)
    (Ok ()) hs

(* Is this header on the branch ending at the current tip? *)
let on_best_chain t hash =
  match Hashtbl.find_opt t.headers hash with
  | None -> false
  | Some e ->
      let rec walk h =
        if String.equal h hash then true
        else
          match Hashtbl.find_opt t.headers h with
          | None -> false
          | Some cur ->
              if cur.header.Block.height <= e.header.Block.height then false
              else walk cur.header.Block.parent
      in
      walk t.tip

(* Verify that [txid] is included in the block with [header_hash], that
   the block is on the best header chain, and that it is buried under at
   least [depth] blocks. *)
let verify_inclusion t ~header_hash ~txid ~proof ~depth =
  match Hashtbl.find_opt t.headers header_hash with
  | None -> Error "unknown block header"
  | Some e ->
      if not (on_best_chain t header_hash) then Error "block not on best chain"
      else if tip_height t - e.header.Block.height + 1 < depth then
        Error "insufficient confirmations"
      else if not (Block.verify_tx_inclusion ~header:e.header ~txid proof) then
        Error "Merkle proof invalid"
      else Ok ()
