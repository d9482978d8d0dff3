(* SHA-256 (FIPS 180-4).

   The streaming layer — block buffering, padding, the length suffix —
   lives here; the compression function itself is a C stub
   (sha256_stubs.c) that uses the x86 SHA extensions when the CPU has
   them and a portable scalar loop otherwise. Both paths compute the
   identical FIPS 180-4 function, verified against the NIST test
   vectors in the test suite, so digest values are bit-for-bit the same
   on every machine.

   Every Merkle node, transaction id and HMAC block lands here. One-shot
   digests run on a domain-local scratch context instead of allocating a
   context and block buffer per call, and whole-block input spans are
   handed to the stub as one multi-block call, so long messages pay the
   OCaml->C boundary once.

   The two loops that issue the most digests — WOTS chain steps and
   proof-of-work nonces — do not come through this layer one message at
   a time: [wots_chains] and [grind_pow] run them as batched C kernels
   that feed two messages at once through a 2-lane compression. The
   wrappers below check every length before the stubs touch memory. *)

type ctx = {
  h : int array; (* working variables H0..H7, 32-bit values in native ints *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes fed, for the length suffix *)
}

(* [compress_blocks h buf off n] runs the compression function over [n]
   consecutive 64-byte blocks of [buf] starting at [off], updating [h]
   in place. The stub allocates nothing and cannot raise. *)
external compress_blocks : int array -> Bytes.t -> int -> int -> unit
  = "ac3_sha256_compress_stub"
  [@@noalloc]

external shani_available : unit -> bool = "ac3_sha256_shani_available_stub"

external pair_stub : string -> string -> Bytes.t -> unit = "ac3_sha256_pair_stub" [@@noalloc]

external wots_chains_stub : Bytes.t -> int -> int array -> unit = "ac3_sha256_wots_chains_stub"
  [@@noalloc]

external grind_pow_stub : string -> string -> int -> int -> int = "ac3_sha256_pow_grind_stub"
  [@@noalloc]

let iv = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let init () = { h = Array.copy iv; buf = Bytes.create 64; buf_len = 0; total = 0 }

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 0

let copy ctx =
  let c = init () in
  Array.blit ctx.h 0 c.h 0 8;
  Bytes.blit ctx.buf 0 c.buf 0 64;
  c.buf_len <- ctx.buf_len;
  c.total <- ctx.total;
  c

let restore ~src ~dst =
  Array.blit src.h 0 dst.h 0 8;
  Bytes.blit src.buf 0 dst.buf 0 64;
  dst.buf_len <- src.buf_len;
  dst.total <- src.total

let feed_bytes ctx (data : Bytes.t) off len =
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Fill a partial buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit data !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress_blocks ctx.h ctx.buf 0 1;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks straight from the input, one stub call for the span. *)
  let nblocks = !remaining / 64 in
  if nblocks > 0 then begin
    compress_blocks ctx.h data !pos nblocks;
    pos := !pos + (nblocks * 64);
    remaining := !remaining - (nblocks * 64)
  end;
  if !remaining > 0 then begin
    Bytes.blit data !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let feed_string ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

(* Padding is written into the context's own block buffer (after
   feeding, buf_len < 64 always holds), so finalization allocates only
   the 32-byte result. *)
let finalize ctx =
  let bit_len = ctx.total * 8 in
  let buf = ctx.buf in
  let n = ctx.buf_len in
  Bytes.unsafe_set buf n '\x80';
  if n + 1 > 56 then begin
    Bytes.fill buf (n + 1) (64 - n - 1) '\x00';
    compress_blocks ctx.h buf 0 1;
    Bytes.fill buf 0 56 '\x00'
  end
  else Bytes.fill buf (n + 1) (56 - n - 1) '\x00';
  for i = 0 to 7 do
    Bytes.unsafe_set buf (56 + i) (Char.unsafe_chr ((bit_len lsr (8 * (7 - i))) land 0xFF))
  done;
  compress_blocks ctx.h buf 0 1;
  ctx.buf_len <- 0;
  let h = ctx.h in
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = Array.unsafe_get h i in
    Bytes.unsafe_set out (4 * i) (Char.unsafe_chr ((v lsr 24) land 0xFF));
    Bytes.unsafe_set out ((4 * i) + 1) (Char.unsafe_chr ((v lsr 16) land 0xFF));
    Bytes.unsafe_set out ((4 * i) + 2) (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Bytes.unsafe_set out ((4 * i) + 3) (Char.unsafe_chr (v land 0xFF))
  done;
  Bytes.unsafe_to_string out

(* One-shot digests run on a per-domain scratch context: [digest] cannot
   re-enter itself (no callbacks), so reuse within a domain is safe, and
   domains never share a scratch context.
   ac3-lint: allow D008 — domain-local scratch buffer; the digest value is a pure function of the input *)
let scratch = Domain.DLS.new_key init

(* ac3-lint: allow D008 — reads this domain's own scratch context *)
let get_scratch () = Domain.DLS.get scratch

let digest s =
  let ctx = get_scratch () in
  reset ctx;
  feed_string ctx s;
  finalize ctx

let digest_list parts =
  let ctx = get_scratch () in
  reset ctx;
  List.iter (feed_string ctx) parts;
  finalize ctx

let hexdigest s = Hex.encode (digest s)

(* Double SHA-256, as used by Bitcoin for block and transaction ids. *)
let digest2 s =
  let ctx = get_scratch () in
  reset ctx;
  feed_string ctx s;
  let first = finalize ctx in
  reset ctx;
  feed_string ctx first;
  finalize ctx

let digest_pair a b =
  let out = Bytes.create 64 in
  pair_stub a b out;
  (Bytes.sub_string out 0 32, Bytes.sub_string out 32 32)

(* The kernel pads each frame into a 128-byte lane buffer, so a frame
   plus the 9 bytes of padding must fit in two blocks. *)
let wots_frame_max = 119

let wots_chains frames ~frame_len ranges =
  let n = Array.length ranges / 2 in
  if frame_len > wots_frame_max then
    invalid_arg
      (Printf.sprintf "Sha256.wots_chains: %d-byte frame exceeds %d bytes" frame_len
         wots_frame_max);
  if frame_len < 36 || Array.length ranges <> 2 * n || n > 0x10000
     || Bytes.length frames <> n * frame_len
     || Array.exists (fun s -> s < 0 || s > 0x10000) ranges
  then invalid_arg "Sha256.wots_chains: malformed frames or ranges";
  wots_chains_stub frames frame_len ranges

let grind_pow header ~target ~first ~count =
  if String.length header < 8 || first < 0 || count < 0 || first > max_int - count then
    invalid_arg "Sha256.grind_pow";
  let nonce = grind_pow_stub header target first count in
  if nonce < 0 then None else Some nonce
