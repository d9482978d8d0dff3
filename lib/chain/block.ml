(* Blocks: a proof-of-work header committing to an ordered transaction
   list via a Merkle root. Headers carry the chain id so headers from one
   blockchain can never masquerade as another's in cross-chain evidence. *)

module Codec = Ac3_crypto.Codec
module Sha256 = Ac3_crypto.Sha256
module Merkle = Ac3_crypto.Merkle

type header = {
  chain : string;
  height : int;
  parent : string; (* 32-byte parent header hash *)
  merkle_root : string; (* 32-byte root over txids *)
  time : float; (* virtual timestamp at mining *)
  target : string; (* 32-byte PoW target *)
  nonce : int64;
}

type t = { header : header; txs : Tx.t list }

let encode_header w h =
  Codec.Writer.string w h.chain;
  Codec.Writer.u32 w h.height;
  Codec.Writer.fixed w ~len:32 h.parent;
  Codec.Writer.fixed w ~len:32 h.merkle_root;
  Codec.Writer.float w h.time;
  Codec.Writer.fixed w ~len:32 h.target;
  Codec.Writer.i64 w h.nonce

let decode_header r =
  let chain = Codec.Reader.string r in
  let height = Codec.Reader.u32 r in
  let parent = Codec.Reader.fixed r ~len:32 in
  let merkle_root = Codec.Reader.fixed r ~len:32 in
  let time = Codec.Reader.float r in
  let target = Codec.Reader.fixed r ~len:32 in
  let nonce = Codec.Reader.i64 r in
  { chain; height; parent; merkle_root; time; target; nonce }

let header_bytes h = Codec.encode encode_header h

(* Header-hash memo keyed by the serialized header. Every depth poll,
   evidence check and fork walk re-hashes the same headers; [mine]
   below deliberately bypasses this table (grinding would churn it). *)
let hash_memo : string Ac3_fast.Memo.t = Ac3_fast.Memo.create ~name:"block.hash" ~cap:4096

let hash_header h =
  let bytes = header_bytes h in
  Ac3_fast.Memo.memo hash_memo bytes (fun () -> Sha256.digest2 bytes)

let hash t = hash_header t.header

let genesis_parent = String.make 32 '\x00'

(* Root memo keyed by the concatenated txids (fixed 32-byte records, so
   the key is self-delimiting). Candidate assembly and body validation
   recompute the same commitment; the per-node memos inside
   [Merkle.root] additionally make a near-miss (one tx appended) reuse
   the shared subtree hashes. *)
let merkle_memo : string Ac3_fast.Memo.t = Ac3_fast.Memo.create ~name:"block.merkle" ~cap:1024

let merkle_root_of_txs txs =
  let ids = List.map Tx.txid txs in
  Ac3_fast.Memo.memo merkle_memo (String.concat "" ids) (fun () -> Merkle.root ids)

(* Inclusion proof for the [i]-th transaction; verified by light clients
   and by cross-chain evidence checks. *)
let tx_proof t i = Merkle.proof (List.map Tx.txid t.txs) i

let verify_tx_inclusion ~header ~txid proof =
  Merkle.verify ~root:header.merkle_root ~leaf:txid proof

(* Header-only validity: PoW met and internal consistency. *)
let header_pow_ok h = Pow.meets_target ~hash:(hash_header h) ~target:h.target

(* Full structural validity of a block body against its header. *)
let body_ok t =
  String.equal t.header.merkle_root (merkle_root_of_txs t.txs)
  && (match t.txs with
     | first :: rest -> Tx.is_coinbase first && List.for_all (fun tx -> not (Tx.is_coinbase tx)) rest
     | [] -> false)
  && List.for_all (fun (tx : Tx.t) -> String.equal tx.Tx.chain t.header.chain) t.txs

let genesis ?(premine = []) ~chain ~time ~target () =
  let txs = [ Tx.genesis ~chain ~premine ] in
  let header =
    {
      chain;
      height = 0;
      parent = genesis_parent;
      merkle_root = merkle_root_of_txs txs;
      time;
      target;
      nonce = 0L;
    }
  in
  (* Genesis is exempt from PoW: it is a fixed constant of the chain. *)
  { header; txs }

(* Assemble and mine a block on [parent_hash]. The header is serialized
   once; [Pow.grind] patches the nonce — the final 8 bytes of the
   encoding — per attempt, hashing the same bytes [hash_header { base
   with nonce }] would hash. *)
let mine ~chain ~height ~parent ~time ~target ~txs =
  let merkle_root = merkle_root_of_txs txs in
  let base = { chain; height; parent; merkle_root; time; target; nonce = 0L } in
  let nonce = Pow.grind ~target (header_bytes base) in
  { header = { base with nonce }; txs }
