(* Zipf-distributed popularity sampling.

   The workload engine draws users and chain pairs from a Zipf
   distribution — the paper's evaluation (Sec 6) stresses contention on
   popular assets, and real swap traffic is heavily skewed. Rank 0 is
   the most popular item; P(rank = i) ∝ 1 / (i + 1)^s.

   The CDF is precomputed once; sampling is a binary search over it, so
   a draw costs O(log n) and consumes exactly one [Rng.float]. *)

module Rng = Ac3_sim.Rng

type t = { n : int; s : float; cdf : float array }

let create ~n ~s =
  if n < 1 then invalid_arg "Zipf.create: n must be >= 1";
  if s < 0.0 then invalid_arg "Zipf.create: exponent must be >= 0";
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  (* Guard against float round-off: the last bucket must catch u -> 1. *)
  cdf.(n - 1) <- 1.0;
  { n; s; cdf }

(* P(rank = i). *)
let prob t i =
  if i < 0 || i >= t.n then invalid_arg "Zipf.prob: rank out of range";
  if i = 0 then t.cdf.(0) else t.cdf.(i) -. t.cdf.(i - 1)

(* Smallest rank whose CDF exceeds u. *)
let sample t rng =
  let u = Rng.float rng 1.0 in
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo
