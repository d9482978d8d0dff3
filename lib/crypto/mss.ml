(* Merkle signature scheme (MSS): a many-time scheme built from WOTS
   one-time keys under a Merkle tree.

   The public key is the Merkle root over 2^height WOTS public keys. Each
   signature consumes one leaf: it carries the leaf index, the WOTS
   signature, and the authentication path from the recomputed leaf back to
   the root. The signer is stateful and refuses to reuse leaves. *)

exception Key_exhausted

(* The expensive, immutable part of a key: everything [generate]
   computes. Split out so equal (seed, height) pairs can share one
   build — only the [next] leaf counter below is per-key state. *)
type material = {
  leaf_secrets : Wots.secret array;
  leaf_publics : string array;
  (* tree.(0) = leaf hashes, tree.(height) = [| root |] *)
  tree : string array array;
}

type secret = {
  seed : string;
  height : int;
  material : material;
  mutable next : int;
}

type public = string

type signature = {
  leaf_index : int;
  wots_sig : Wots.signature;
  auth_path : string array; (* sibling hashes, leaf level upward *)
}

let leaf_tag i = Printf.sprintf "mss-leaf:%d" i

let leaf_hash pk = Sha256.digest_list [ "mss-leaf-hash"; pk ]

let node_hash l r = Sha256.digest_list [ "mss-node"; l; r ]

let build_material ~height ~seed =
  let n = 1 lsl height in
  let leaf_secrets = Array.init n (fun i -> Wots.generate ~seed ~tag:(leaf_tag i)) in
  let leaf_publics = Wots.publics leaf_secrets in
  let tree = Array.make (height + 1) [||] in
  tree.(0) <- Array.map leaf_hash leaf_publics;
  for level = 1 to height do
    let below = tree.(level - 1) in
    tree.(level) <-
      Array.init (Array.length below / 2) (fun i -> node_hash below.(2 * i) below.((2 * i) + 1))
  done;
  { leaf_secrets; leaf_publics; tree }

(* Material is a pure function of (height, seed), so identical keys
   re-created by replay runs share one build through the per-domain
   memo. *)
let material_memo : material Memo.t = Memo.create ~name:"mss.material" ~cap:128

let material ~height ~seed =
  Memo.memo material_memo (string_of_int height ^ ":" ^ seed) (fun () ->
      build_material ~height ~seed)

let generate ?(height = 5) ~seed () =
  if height < 1 || height > 16 then invalid_arg "Mss.generate: height out of range";
  { seed; height; material = material ~height ~seed; next = 0 }

let public sk = sk.material.tree.(sk.height).(0)

let capacity sk = 1 lsl sk.height

let remaining sk = capacity sk - sk.next

let auth_path sk index =
  Array.init sk.height (fun level ->
      let i = index lsr level in
      sk.material.tree.(level).(i lxor 1))

let sign sk msg =
  if sk.next >= capacity sk then raise Key_exhausted;
  let index = sk.next in
  sk.next <- index + 1;
  {
    leaf_index = index;
    wots_sig = Wots.sign sk.material.leaf_secrets.(index) msg;
    auth_path = auth_path sk index;
  }

let verify pk msg { leaf_index; wots_sig; auth_path } =
  leaf_index >= 0
  && Array.for_all (fun h -> String.length h = 32) auth_path
  &&
  match Wots.public_from_signature ~tag:(leaf_tag leaf_index) msg wots_sig with
  | None -> false
  | Some wots_pk ->
      let h = ref (leaf_hash wots_pk) in
      Array.iteri
        (fun level sibling ->
          let bit = (leaf_index lsr level) land 1 in
          h := if bit = 0 then node_hash !h sibling else node_hash sibling !h)
        auth_path;
      String.equal !h pk

let encode_signature w s =
  Codec.Writer.u32 w s.leaf_index;
  Wots.encode_signature w s.wots_sig;
  Codec.Writer.u16 w (Array.length s.auth_path);
  Array.iter (Codec.Writer.fixed w ~len:32) s.auth_path

let decode_signature r =
  let leaf_index = Codec.Reader.u32 r in
  let wots_sig = Wots.decode_signature r in
  let n = Codec.Reader.u16 r in
  let auth_path = Array.init n (fun _ -> Codec.Reader.fixed r ~len:32) in
  { leaf_index; wots_sig; auth_path }
