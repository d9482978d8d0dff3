(* Winternitz one-time signatures (WOTS) over SHA-256.

   Signs a 256-bit digest with Winternitz parameter w = 16 (4 bits per
   chain): 64 message chains plus 3 checksum chains. At 67 x 32 bytes a
   signature is roughly 8x smaller than a one-preimage-per-bit scheme's
   512 x 32, at the cost of hash chains.

   Chain steps are domain-separated by (key tag, chain index, step index)
   so chains from different keys or positions can never be spliced. All
   67 chains of a key are walked in one call into a C kernel, which runs
   them in pairs through a 2-lane SHA-256 compression (see [walk]). *)

let w = 16

let log_w = 4

let msg_chains = 64 (* 256 bits / 4 bits per chain *)

let checksum_chains = 3 (* max checksum 64*15 = 960 < 16^3 *)

let num_chains = msg_chains + checksum_chains

(* [prk] caches the HMAC midstates of the secret-element expansion
   stream (seed, "wots:" ^ tag) so the 67 chain seeds of a key don't
   each re-derive the stream key. *)
type secret = { tag : string; prk : Drbg.prk }

type public = string (* 32-byte hash of all chain tops *)

type signature = string array (* [num_chains] intermediate chain values *)

(* Walk every chain of one key at once: chain i from step [from_ i] up
   to (not including) [to_ i], starting from [xs.(i)]. Each step hashes
   the [Codec]-framed record
     string "wots-step" | string tag | u16 chain | u16 step | 32-byte x
   — the tag binds every step to this key pair, the indices to its
   position. The frame prefix is encoded once per key; the C kernel
   ([Sha256.wots_chains]) patches the chain, step and x bytes in place
   and runs the chains two at a time through the 2-lane compression.
   Keygen, signing and verification all walk through here. *)
let walk tag ~from_ ~to_ xs =
  let prefix =
    Codec.encode
      (fun w () ->
        Codec.Writer.string w "wots-step";
        Codec.Writer.string w tag)
      ()
  in
  let plen = String.length prefix in
  let frame_len = plen + 36 in
  let n = Array.length xs in
  let frames = Bytes.create (n * frame_len) in
  let ranges = Array.make (2 * n) 0 in
  Array.iteri
    (fun i x ->
      Bytes.blit_string prefix 0 frames (i * frame_len) plen;
      Bytes.blit_string x 0 frames (((i + 1) * frame_len) - 32) 32;
      ranges.(2 * i) <- from_ i;
      ranges.((2 * i) + 1) <- to_ i)
    xs;
  Sha256.wots_chains frames ~frame_len ranges;
  Array.init n (fun i -> Bytes.sub_string frames (((i + 1) * frame_len) - 32) 32)

let sk_element { prk; _ } i = Drbg.expand_prk prk i

let generate ~seed ~tag = { tag; prk = Drbg.prk ~seed ~label:("wots:" ^ tag) }

let secret_elements sk = Array.init num_chains (sk_element sk)

let chain_tops sk = walk sk.tag ~from_:(fun _ -> 0) ~to_:(fun _ -> w - 1) (secret_elements sk)

let public_of_tops ~tag tops =
  let ctx = Sha256.init () in
  Sha256.feed_string ctx "wots-pk";
  Sha256.feed_string ctx tag;
  Array.iter (Sha256.feed_string ctx) tops;
  Sha256.finalize ctx

let public sk = public_of_tops ~tag:sk.tag (chain_tops sk)

(* Split a 32-byte digest into 64 base-16 symbols, then append the 3-symbol
   checksum of sum (w-1 - d_i). The checksum defeats signature mauling: an
   attacker cannot advance message chains without retreating a checksum
   chain, which is computationally infeasible. *)
let symbols_of_digest digest =
  let msg = Array.make num_chains 0 in
  for i = 0 to 31 do
    let byte = Char.code digest.[i] in
    msg.(2 * i) <- byte lsr 4;
    msg.((2 * i) + 1) <- byte land 0xF
  done;
  let csum = ref 0 in
  for i = 0 to msg_chains - 1 do
    csum := !csum + (w - 1 - msg.(i))
  done;
  for j = 0 to checksum_chains - 1 do
    msg.(msg_chains + j) <- (!csum lsr (log_w * (checksum_chains - 1 - j))) land 0xF
  done;
  msg

let sign sk msg =
  let digest = Sha256.digest msg in
  let syms = symbols_of_digest digest in
  walk sk.tag ~from_:(fun _ -> 0) ~to_:(Array.get syms) (secret_elements sk)

(* Recompute the public key implied by a signature. Verification succeeds
   when it matches; MSS also uses this to recompute leaf values. *)
let public_from_signature ~tag msg signature =
  if Array.length signature <> num_chains then None
  else if Array.exists (fun s -> String.length s <> 32) signature then None
  else begin
    let digest = Sha256.digest msg in
    let syms = symbols_of_digest digest in
    let tops = walk tag ~from_:(Array.get syms) ~to_:(fun _ -> w - 1) signature in
    Some (public_of_tops ~tag tops)
  end

let verify ~tag pk msg signature =
  match public_from_signature ~tag msg signature with
  | Some pk' -> String.equal pk pk'
  | None -> false

let signature_size signature =
  Array.fold_left (fun acc s -> acc + String.length s) 0 signature

let encode_signature w_ (s : signature) =
  Codec.Writer.u16 w_ (Array.length s);
  Array.iter (Codec.Writer.fixed w_ ~len:32) s

let decode_signature r =
  let n = Codec.Reader.u16 r in
  if n <> num_chains then
    raise (Codec.Decode_error (Printf.sprintf "Wots.signature: expected %d chains, got %d" num_chains n));
  Array.init n (fun _ -> Codec.Reader.fixed r ~len:32)
