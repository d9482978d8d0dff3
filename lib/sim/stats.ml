(* Small statistics toolbox used by the experiment harness.

   NaN policy: order statistics (percentile, maximum) DROP NaN samples
   — a NaN must never silently poison a sort (polymorphic [compare]
   puts NaN in an unspecified position, yielding garbage percentiles)
   or leak asymmetrically out of a max. [mean] keeps IEEE propagation:
   a NaN sample makes it NaN, which is visible rather than wrong. *)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let drop_nans xs = List.filter (fun x -> not (Float.is_nan x)) xs

let maximum xs =
  match drop_nans xs with [] -> nan | x :: r -> List.fold_left Float.max x r

(* Nearest-rank percentile on a copy of the data. [p] in [0, 100].
   Sorts with [Float.compare]: total order, NaNs already dropped. *)
let percentile xs p =
  match drop_nans xs with
  | [] -> nan
  | valid ->
      let arr = Array.of_list valid in
      Array.sort Float.compare arr;
      let n = Array.length arr in
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      let idx = max 0 (min (n - 1) (rank - 1)) in
      arr.(idx)
