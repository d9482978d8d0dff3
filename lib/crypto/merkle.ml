(* Merkle trees over SHA-256, with inclusion proofs.

   Used for (a) transaction commitments inside block headers, verified by
   light clients and by cross-chain evidence (Sec 4.3 of the paper), and
   (b) the many-time hash-based signature scheme.

   Domain separation: leaves are hashed with prefix byte 0x00 and interior
   nodes with 0x01, which rules out second-preimage tricks that reinterpret
   interior nodes as leaves. An odd node at any level is paired with
   itself, Bitcoin-style. *)

(* Leaf and node hashes are memoized by their full input — this is the
   incremental builder: rebuilding a root after appending one leaf (a
   miner extending its candidate block) re-derives only the O(log n)
   nodes on the changed path and takes every untouched subtree from the
   table. Evidence re-verification hits the same way. The hashes
   depend only on the concatenated input bytes (the prefix is a
   constant), so the concatenation is a sound key; separate tables keep
   the 0x00/0x01 domains apart. *)
let leaf_memo : string Ac3_fast.Memo.t = Ac3_fast.Memo.create ~name:"merkle.leaf" ~cap:2048

let node_memo : string Ac3_fast.Memo.t = Ac3_fast.Memo.create ~name:"merkle.node" ~cap:2048

let leaf_hash data =
  Ac3_fast.Memo.memo leaf_memo data (fun () -> Sha256.digest_list [ "\x00"; data ])

let node_hash left right =
  Ac3_fast.Memo.memo node_memo (left ^ right) (fun () -> Sha256.digest_list [ "\x01"; left; right ])

let empty_root = Sha256.digest "merkle:empty"

type proof = {
  leaf_index : int;
  (* Sibling hash at each level, leaf upward, with the side the sibling is
     on: [`Left h] means [h] is hashed to the left of the running value. *)
  path : [ `Left of string | `Right of string ] list;
}

let level_up nodes =
  let n = Array.length nodes in
  let m = (n + 1) / 2 in
  Array.init m (fun i ->
      let left = nodes.(2 * i) in
      let right = if (2 * i) + 1 < n then nodes.((2 * i) + 1) else left in
      node_hash left right)

let root leaves =
  match leaves with
  | [] -> empty_root
  | _ ->
      let rec up nodes = if Array.length nodes = 1 then nodes.(0) else up (level_up nodes) in
      up (Array.of_list (List.map leaf_hash leaves))

let proof leaves index =
  let n = List.length leaves in
  if index < 0 || index >= n then invalid_arg "Merkle.proof: index out of range";
  let rec build nodes i acc =
    if Array.length nodes = 1 then List.rev acc
    else begin
      let len = Array.length nodes in
      let sibling_index = if i land 1 = 0 then i + 1 else i - 1 in
      let sibling = if sibling_index < len then nodes.(sibling_index) else nodes.(i) in
      let step = if i land 1 = 0 then `Right sibling else `Left sibling in
      build (level_up nodes) (i / 2) (step :: acc)
    end
  in
  let path = build (Array.of_list (List.map leaf_hash leaves)) index [] in
  { leaf_index = index; path }

let verify ~root:expected_root ~leaf proof =
  let h =
    List.fold_left
      (fun acc step ->
        match step with
        | `Left sibling -> node_hash sibling acc
        | `Right sibling -> node_hash acc sibling)
      (leaf_hash leaf) proof.path
  in
  String.equal h expected_root

let proof_length p = List.length p.path

(* Codec for embedding proofs in evidence payloads. *)
let encode_proof w p =
  Codec.Writer.u32 w p.leaf_index;
  Codec.Writer.list w
    (fun w step ->
      match step with
      | `Left h ->
          Codec.Writer.u8 w 0;
          Codec.Writer.fixed w ~len:32 h
      | `Right h ->
          Codec.Writer.u8 w 1;
          Codec.Writer.fixed w ~len:32 h)
    p.path

let decode_proof r =
  let leaf_index = Codec.Reader.u32 r in
  let path =
    Codec.Reader.list r (fun r ->
        match Codec.Reader.u8 r with
        | 0 -> `Left (Codec.Reader.fixed r ~len:32)
        | 1 -> `Right (Codec.Reader.fixed r ~len:32)
        | v -> raise (Codec.Decode_error (Printf.sprintf "Merkle.proof: bad side tag %d" v)))
  in
  { leaf_index; path }
