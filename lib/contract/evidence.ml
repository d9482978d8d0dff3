(* Cross-chain evidence (paper Sec 4.3).

   Evidence lets the miners of one blockchain (the validator) verify that
   a transaction/contract exists, is stable, and has a given state on
   another blockchain (the validated) — without running a node of that
   chain. Following the paper's proposal, the validator contract stores a
   *checkpoint*: the header of a stable block of the validated chain. An
   evidence bundle then contains:

     - the headers from the checkpoint (exclusive) up to a recent tip of
       the validated chain, each with valid PoW and correct linkage;
     - a Merkle inclusion proof of the transaction of interest in one of
       those blocks (or in the checkpoint block itself);
     - the full transaction bytes, so the validator can inspect the
       deployed contract's parameters;

   and it convinces the validator iff the transaction's block is buried
   under at least [depth] of the presented headers.

   This module implements bundles plus the paper's two alternative
   validation strategies (full replication and SPV light nodes) for the
   ablation benchmark. *)

module Codec = Ac3_crypto.Codec
module Merkle = Ac3_crypto.Merkle
open Ac3_chain

type checkpoint = Block.header

type t = {
  chain : string; (* validated chain id *)
  headers : Block.header list; (* ascending, first extends the checkpoint *)
  tx_block_hash : string; (* block holding the transaction *)
  tx_bytes : string; (* full transaction *)
  tx_proof : Merkle.proof;
}

let encode w t =
  Codec.Writer.string w t.chain;
  Codec.Writer.list w Block.encode_header t.headers;
  Codec.Writer.fixed w ~len:32 t.tx_block_hash;
  Codec.Writer.string w t.tx_bytes;
  Merkle.encode_proof w t.tx_proof

let decode r =
  let chain = Codec.Reader.string r in
  let headers = Codec.Reader.list r Block.decode_header in
  let tx_block_hash = Codec.Reader.fixed r ~len:32 in
  let tx_bytes = Codec.Reader.string r in
  let tx_proof = Merkle.decode_proof r in
  { chain; headers; tx_block_hash; tx_bytes; tx_proof }

let to_value t = Value.Bytes (Codec.encode encode t)

let of_value v =
  match v with
  | Value.Bytes b -> ( try Ok (Codec.decode decode b) with Codec.Decode_error e -> Error e)
  | _ -> Error "expected evidence bytes"

(* Build an evidence bundle from a full node's store: headers from the
   checkpoint's height + 1 up to the current tip, plus the inclusion
   proof for [txid]. *)
let build ~store ~checkpoint ~txid =
  match Store.find_tx store txid with
  | None -> Error "transaction not on the active chain"
  | Some (block, index) ->
      let cp_height = checkpoint.Block.height in
      (match Store.block_at_height store cp_height with
      | Some b when String.equal (Block.hash b) (Block.hash_header checkpoint) ->
          let headers = Store.headers_from store ~from_:(cp_height + 1) in
          Ok
            {
              chain = (Store.params store).Params.chain_id;
              headers;
              tx_block_hash = Block.hash block;
              tx_bytes = Tx.to_bytes (List.nth block.Block.txs index);
              tx_proof = Block.tx_proof block index;
            }
      | _ -> Error "checkpoint is not on this node's active chain")

(* Verify an evidence bundle against a checkpoint.

   Checks (the validator contract's logic in Figure 6 of the paper):
     1. every presented header has valid PoW at the expected target and
        chains correctly from the checkpoint;
     2. the transaction's block is among checkpoint+headers;
     3. the Merkle proof places txid in that block;
     4. the block is buried under >= [depth] headers (stability);
   and returns the decoded transaction for parameter inspection. Each
   presented header is hashed once: that hash proves its PoW, is the
   parent the next header must name, and is matched against the
   transaction's block. *)
let verify ~checkpoint ~depth t =
  let target = checkpoint.Block.target in
  let chain = checkpoint.Block.chain in
  if not (String.equal t.chain chain) then Error "evidence for a different chain"
  else begin
    (* 1 and 2. Walk the header chain, remembering the first block whose
       hash is the transaction's; the walk ends at the bundle's tip. *)
    let located hash header found =
      match found with
      | None when String.equal hash t.tx_block_hash -> Some header
      | found -> found
    in
    let rec walk prev_hash (prev : Block.header) found = function
      | [] -> Ok (prev.Block.height, found)
      | (h : Block.header) :: rest ->
          if not (String.equal h.Block.chain chain) then Error "header from wrong chain"
          else if not (String.equal h.Block.target target) then Error "header at wrong target"
          else if not (String.equal h.Block.parent prev_hash) then Error "broken header linkage"
          else if h.Block.height <> prev.Block.height + 1 then Error "broken header heights"
          else
            let hash = Block.hash_header h in
            if not (Pow.meets_target ~hash ~target) then Error "header fails proof of work"
            else walk hash h (located hash h found) rest
    in
    let cp_hash = Block.hash_header checkpoint in
    match walk cp_hash checkpoint (located cp_hash checkpoint None) t.headers with
    | Error e -> Error e
    | Ok (_, None) -> Error "transaction block not covered by evidence"
    | Ok (tip_height, Some header) ->
        (* 4. Stability: blocks above the tx block within the bundle
           (heights are consecutive, so the height gap counts them). *)
        let burial = tip_height - header.Block.height in
        if burial < depth then
          Error (Printf.sprintf "insufficient burial: %d < required depth %d" burial depth)
        else begin
          (* 3. Inclusion. *)
          let tx =
            try Ok (Tx.of_bytes t.tx_bytes)
            with Codec.Decode_error e -> Error ("malformed transaction: " ^ e)
          in
          match tx with
          | Error e -> Error e
          | Ok tx ->
              if Block.verify_tx_inclusion ~header ~txid:(Tx.txid tx) t.tx_proof then Ok tx
              else Error "Merkle inclusion proof invalid"
        end
  end

(* --- Alternative validation strategies (for the Sec 4.3 ablation) ------ *)

(* Full replication: the validator holds a complete copy of the validated
   chain and just consults it. *)
let verify_by_full_replication ~replica ~txid ~depth =
  if Store.confirmations replica txid >= depth then
    match Store.find_tx replica txid with
    | Some (block, index) -> Ok (List.nth block.Block.txs index)
    | None -> Error "transaction not found"
  else Error "insufficient confirmations"

(* SPV: the validator runs a light node of the validated chain and is
   handed only (block hash, txid, proof). *)
let verify_by_light_client ~spv ~header_hash ~txid ~proof ~depth =
  Spv.verify_inclusion spv ~header_hash ~txid ~proof ~depth
