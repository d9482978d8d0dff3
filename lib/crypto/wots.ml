(* Winternitz one-time signatures (WOTS) over SHA-256.

   Signs a 256-bit digest with Winternitz parameter w = 16 (4 bits per
   chain): 64 message chains plus 3 checksum chains. At 67 x 32 bytes a
   signature is roughly 8x smaller than a one-preimage-per-bit scheme's
   512 x 32, at the cost of hash chains.

   Chain steps are domain-separated by (key tag, chain index, step index)
   so chains from different keys or positions can never be spliced. The
   chains of one or more keys are walked in one call into a C kernel,
   which runs them many at a time through a lane compression (see
   [walk]). *)

let w = 16

let log_w = 4

let msg_chains = 64 (* 256 bits / 4 bits per chain *)

let checksum_chains = 3 (* max checksum 64*15 = 960 < 16^3 *)

let num_chains = msg_chains + checksum_chains

(* [pads] are the HMAC pad midstates of the secret-element expansion
   stream (seed, "wots:" ^ tag): the kernel expands a key's 67 chain
   seeds from them, [Drbg.expand_prk] bit for bit, without building
   them as strings. *)
type secret = { tag : string; pads : int array }

type public = string (* 32-byte hash of all chain tops *)

type signature = string array (* [num_chains] intermediate chain values *)

let frame_prefix tag =
  Codec.encode
    (fun w () ->
      Codec.Writer.string w "wots-step";
      Codec.Writer.string w tag)
    ()

(* Walk every chain of the keys [tags] at once, [num_chains] per key in
   key order: chain i from step [from_ i] up to (not including) [to_ i].
   Chains start from the keys' secret elements, expanded in the kernel
   from [`Secrets pads] (the keys' pad midstates, concatenated), or from
   [`Values xs]. Each step hashes the [Codec]-framed record
     string "wots-step" | string tag | u16 chain | u16 step | 32-byte x
   — the tag binds every step to its key pair, the indices to its
   position within the key. Each frame is written once, chain index
   included; the C kernel ([Sha256.wots_chains]) patches the step and x
   bytes in place, and on return frame i ends with chain i's end value.
   One kernel call takes one frame length, so [tags] must all encode to
   the same length. Keygen, signing and verification all walk through
   here.

   The frames and ranges are this domain's scratch ([Scratch.wots_frames],
   [Scratch.wots_ranges]), grown to the largest walk so far (a keygen batch,
   about 70 KB of frames): a walk allocates no buffer, and what it
   returns is valid until this domain's next walk. Every caller reads
   the end values out first. *)
let walk tags start ~from_ ~to_ =
  let prefixes = Array.map frame_prefix tags in
  let plen = String.length prefixes.(0) in
  let frame_len = plen + 36 in
  let n = Array.length tags * num_chains in
  let frames = Scratch.wots_frames (n * frame_len) and ranges = Scratch.wots_ranges (2 * n) in
  for i = 0 to n - 1 do
    let off = i * frame_len in
    Bytes.blit_string prefixes.(i / num_chains) 0 frames off plen;
    Bytes.set_uint16_be frames (off + plen) (i mod num_chains);
    Bytes.set_uint16_be frames (off + plen + 2) 0;
    (match start with
    | `Values xs -> Bytes.blit_string xs.(i) 0 frames (off + plen + 4) 32
    | `Secrets _ -> ());
    ranges.(2 * i) <- from_ i;
    ranges.((2 * i) + 1) <- to_ i
  done;
  let pads = match start with `Secrets pads -> Some pads | `Values _ -> None in
  Sha256.wots_chains ?pads ~chains:n frames ~frame_len ranges;
  (frames, frame_len)

let end_offset (_, frame_len) i = ((i + 1) * frame_len) - 32

let end_value ((frames, _) as walked) i = Bytes.sub_string frames (end_offset walked i) 32

(* The public key of key [j] of a walk: the digest of "wots-pk" | tag |
   its [num_chains] chain tops, fed to one context straight from the
   frames, so the 2.2 KB message is never gathered. *)
let public_of_walk ((frames, _) as walked) ~tag j =
  let ctx = Sha256.init () in
  Sha256.feed_string ctx "wots-pk";
  Sha256.feed_string ctx tag;
  for c = 0 to num_chains - 1 do
    Sha256.feed_bytes ctx frames (end_offset walked ((j * num_chains) + c)) 32
  done;
  Sha256.finalize ctx

let generate ~seed ~tag = { tag; pads = Hmac.pad_states (Drbg.prk ~seed ~label:("wots:" ^ tag)) }

(* Key generation walks at most this many keys per kernel call: 1072
   chains, about a millisecond with 16 lanes. So the [@@noalloc] call
   never holds its domain away from a stop-the-world collection for long,
   and the scratch frames stay near 70 KB whatever the key count. *)
let keygen_batch = 16

let publics sks =
  let n = Array.length sks in
  let out = Array.make n "" in
  (* Group keys by tag length, stably (MSS leaves stay in index order),
     then walk each run of equal lengths in batches. *)
  let tag_len i = String.length sks.(i).tag in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare (tag_len a) (tag_len b)) order;
  let rec batches first =
    if first < n then begin
      let stop = ref (first + 1) in
      while
        !stop < n && !stop - first < keygen_batch && tag_len order.(!stop) = tag_len order.(first)
      do
        incr stop
      done;
      let batch = Array.init (!stop - first) (fun j -> sks.(order.(first + j))) in
      let walked =
        walk
          (Array.map (fun sk -> sk.tag) batch)
          (`Secrets (Array.concat (Array.to_list (Array.map (fun sk -> sk.pads) batch))))
          ~from_:(fun _ -> 0)
          ~to_:(fun _ -> w - 1)
      in
      Array.iteri
        (fun j sk -> out.(order.(first + j)) <- public_of_walk walked ~tag:sk.tag j)
        batch;
      batches !stop
    end
  in
  batches 0;
  out

let public sk = (publics [| sk |]).(0)

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
  let syms = symbols_of_digest (Sha256.digest msg) in
  let walked = walk [| sk.tag |] (`Secrets sk.pads) ~from_:(fun _ -> 0) ~to_:(Array.get syms) in
  Array.init num_chains (end_value walked)

(* Recompute the public key implied by a signature. Verification succeeds
   when it matches; MSS also uses this to recompute leaf values. *)
let public_from_signature ~tag msg signature =
  if Array.length signature <> num_chains then None
  else if Array.exists (fun s -> String.length s <> 32) signature then None
  else begin
    let digest = Sha256.digest msg in
    let syms = symbols_of_digest digest in
    let walked = walk [| tag |] (`Values signature) ~from_:(Array.get syms) ~to_:(fun _ -> w - 1) in
    Some (public_of_walk walked ~tag 0)
  end

let verify ~tag pk msg signature =
  match public_from_signature ~tag msg signature with
  | Some pk' -> String.equal pk pk'
  | None -> false

let encode_signature w_ (s : signature) =
  Codec.Writer.u16 w_ (Array.length s);
  Array.iter (Codec.Writer.fixed w_ ~len:32) s

let decode_signature r =
  let n = Codec.Reader.u16 r in
  if n <> num_chains then
    raise (Codec.Decode_error (Printf.sprintf "Wots.signature: expected %d chains, got %d" num_chains n));
  Array.init n (fun _ -> Codec.Reader.fixed r ~len:32)
