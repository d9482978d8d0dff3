(* HMAC-SHA256 (RFC 2104). *)

let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let padded = Bytes.make block_size '\x00' in
  Bytes.blit_string key 0 padded 0 (String.length key);
  Bytes.unsafe_to_string padded

let xor_with s byte =
  String.map (fun c -> Char.chr (Char.code c lxor byte)) s

let mac ~key msg =
  let key = normalize_key key in
  let inner = Sha256.digest_list [ xor_with key 0x36; msg ] in
  Sha256.digest_list [ xor_with key 0x5c; inner ]

(* Constant-time comparison for MACs (avoids timing side channels; also a
   convenient total equality for 32-byte digests). *)
let equal a b =
  String.length a = String.length b
  && begin
       let acc = ref 0 in
       String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
       !acc = 0
     end

(* Precomputed key midstates.

   Both HMAC pads are exactly one SHA-256 block, so after feeding a pad
   the context holds a compressed midstate with an empty buffer. The
   DRBG calls HMAC millions of times per key generation with a handful
   of distinct keys; capturing the two pad compressions once per key
   saves half the compression work of every subsequent tag. Tag values
   are identical to [mac] — the same feed sequence, replayed from a
   snapshot. *)
type prk = { inner0 : Sha256.ctx; outer0 : Sha256.ctx }

let precompute ~key =
  let key = normalize_key key in
  let inner0 = Sha256.init () in
  Sha256.feed_string inner0 (xor_with key 0x36);
  let outer0 = Sha256.init () in
  Sha256.feed_string outer0 (xor_with key 0x5c);
  { inner0; outer0 }

let pad_states prk = Array.append (Sha256.midstate prk.inner0) (Sha256.midstate prk.outer0)

(* [mac_prk] runs on this domain's scratch context ([Scratch.mac]): it
   cannot re-enter itself, and domains never share a scratch. *)
let mac_prk prk msg =
  let ctx = Scratch.mac () in
  Sha256.restore ~src:prk.inner0 ~dst:ctx;
  Sha256.feed_string ctx msg;
  let inner = Sha256.finalize ctx in
  Sha256.restore ~src:prk.outer0 ~dst:ctx;
  Sha256.feed_string ctx inner;
  Sha256.finalize ctx
