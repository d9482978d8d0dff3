(* Deterministic pseudo-random number generator based on SplitMix64
   (Steele, Lea & Flood, OOPSLA 2014). Every source of randomness in the
   simulator flows through this module so that experiments are reproducible
   bit-for-bit from a seed. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* One SplitMix64 step: advance the state by the golden gamma and mix. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Derive an independent stream; used to give each simulated process its own
   generator so that adding events to one process does not perturb another. *)
let split t =
  let s = next_int64 t in
  let gamma_src = next_int64 t in
  { state = Int64.logxor s gamma_src }

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 34)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    (* power of two: mask *)
    Int64.to_int (Int64.logand (next_int64 t) (Int64.of_int (bound - 1)))
  else
    (* rejection sampling over 62 usable bits to avoid modulo bias *)
    let rec loop () =
      let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
      let v = r mod bound in
      if r - v + (bound - 1) < 0 then loop () else v
    in
    loop ()

let int64 t = next_int64 t

let float t bound =
  if bound <= 0.0 then invalid_arg "Rng.float: bound must be positive";
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  r /. 9007199254740992.0 *. bound (* 2^53 *)

let bernoulli t p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t 1.0 < p

(* Exponential inter-arrival times model Poisson block production, matching
   the memoryless behaviour of proof-of-work mining. *)
let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive";
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let uniform_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.uniform_range";
  lo +. float t (hi -. lo)

let bytes t n =
  let b = Bytes.create n in
  let i = ref 0 in
  while !i < n do
    let v = ref (next_int64 t) in
    let k = min 8 (n - !i) in
    for j = 0 to k - 1 do
      Bytes.set b (!i + j) (Char.chr (Int64.to_int (Int64.logand !v 0xFFL)));
      v := Int64.shift_right_logical !v 8
    done;
    i := !i + k
  done;
  b

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
