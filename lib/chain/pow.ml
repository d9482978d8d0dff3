(* Proof of work: a block header is valid when its double-SHA-256 hash,
   read as a 256-bit big-endian number, is at or below the target. *)

module Sha256 = Ac3_crypto.Sha256

(* Target with [bits] required leading zero bits: 2^(256-bits) - 1 encoded
   big-endian over 32 bytes. *)
let target_of_bits bits =
  if bits < 0 || bits > 256 then invalid_arg "Pow.target_of_bits";
  let t = Bytes.make 32 '\xff' in
  let full = bits / 8 and rem = bits mod 8 in
  for i = 0 to full - 1 do
    Bytes.set t i '\x00'
  done;
  if rem > 0 && full < 32 then Bytes.set t full (Char.chr (0xFF lsr rem));
  Bytes.unsafe_to_string t

(* Big-endian comparison: 32-byte strings compare like 256-bit numbers. *)
let meets_target ~hash ~target =
  String.length hash = 32 && String.length target = 32 && String.compare hash target <= 0

(* Expected hashes to find a block at this target: 2^256 / (target + 1).
   Computed in floating point, which is plenty for difficulty accounting. *)
let work_of_target target =
  let v = ref 0.0 in
  String.iter (fun c -> v := (!v *. 256.0) +. float_of_int (Char.code c)) target;
  if !v <= 0.0 then infinity
  else
    (* 2^256 as a float *)
    1.157920892373162e77 /. (!v +. 1.0)

(* Grind the nonce of a serialized header — its final 8 bytes,
   big-endian — from 0 up until the double SHA-256 meets the target;
   returns the lowest winning nonce. The search itself runs in C
   ([Sha256.grind_pow]: a midstate of the constant prefix, consecutive
   nonces across the lanes of the lane compression), in fixed chunks
   from this loop, so a long search returns to OCaml between chunks and
   never holds its domain away from a stop-the-world collection for
   long. [max_iters] bounds runaway grinding at high difficulty; a
   target that is not 32 bytes is never met, so it runs into that
   bound. *)
let grind_chunk = 4096

let grind ?(max_iters = 100_000_000) ~target header =
  let rec go first =
    if first >= max_iters then failwith "Pow.mine: exceeded max iterations";
    let count = min grind_chunk (max_iters - first) in
    match Sha256.grind_pow header ~target ~first ~count with
    | Some nonce -> Int64.of_int nonce
    | None -> go (first + count)
  in
  go 0
