(* Work-stealing domain pool with deterministic, order-preserving
   collection.

   Scheduling is self-balancing: one atomic counter holds the next
   unclaimed task index and every worker — the spawned domains plus the
   calling domain — loops stealing from it. Which domain runs which
   task is timing-dependent, but nothing observable is: results land in
   a slot array by task index, exceptions are re-raised lowest-index
   first, and tasks are required to derive any randomness from
   [split_seed] of their own index. Hence [run ~jobs] is bit-identical
   to [run ~jobs:1] for every jobs value. *)

exception Nested

exception Interference of { index : int; first : string; rerun : string }

let () =
  Printexc.register_printer (function
    | Interference { index; first; rerun } ->
        Some
          (Printf.sprintf
             "Ac3_par.Pool.Interference: task %d is not idempotent (parallel fingerprint %s, \
              sequential rerun %s) — it reads mutable state another task wrote"
             index first rerun)
    | _ -> None)

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* SplitMix64: jump the state directly to [index] gammas past [root]
   and apply the output mix (Steele, Lea & Flood, OOPSLA 2014) — the
   same generator as Ac3_sim.Rng, restated here so the pool stays
   dependency-free. The result is masked with [max_int] — [Int64.to_int]
   keeps the low 63 bits, so merely shifting would still let the native
   sign bit through — to keep the seed a non-negative OCaml int. *)
let split_seed ~root ~index =
  if index < 0 then invalid_arg "Pool.split_seed: negative index";
  let open Int64 in
  let z = add (of_int root) (mul 0x9E3779B97F4A7C15L (of_int (index + 1))) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  to_int (logxor z (shift_right_logical z 31)) land Stdlib.max_int

(* Set while a domain is executing pool tasks; a nested [run] would
   park a worker on a pool that can never drain below it. *)
let in_pool = Domain.DLS.new_key (fun () -> false)

type 'a slot = Pending | Done of 'a | Raised of exn * Printexc.raw_backtrace

(* Lifetime totals for the observability layer: work *submitted*, not
   work *scheduled*. [run]/[map] count their full task list;
   [first_success] counts its candidate list once, not the
   jobs-dependent number of candidates it actually evaluates — so the
   totals are identical for every [jobs] value and safe to export as
   deterministic metrics. *)
let total_tasks = Atomic.make 0

let total_batches = Atomic.make 0

let stats () = (Atomic.get total_batches, Atomic.get total_tasks)

let count_batch n =
  ignore (Atomic.fetch_and_add total_batches 1);
  ignore (Atomic.fetch_and_add total_tasks n)

let run_uncounted ?jobs tasks =
  if Domain.DLS.get in_pool then raise Nested;
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  if n = 0 then []
  else begin
    let jobs = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
    let slots = Array.make n Pending in
    let next = Atomic.make 0 in
    let worker () =
      Domain.DLS.set in_pool true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set in_pool false)
        (fun () ->
          let rec steal () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              (slots.(i) <-
                (match tasks.(i) () with
                | v -> Done v
                | exception e -> Raised (e, Printexc.get_raw_backtrace ())));
              steal ()
            end
          in
          steal ())
    in
    let spawned = List.init (min (jobs - 1) (n - 1)) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    (* All slots are filled once every worker has drained; joins give
       the happens-before edge that makes the writes visible here. *)
    Array.iter
      (function Raised (e, bt) -> Printexc.raise_with_backtrace e bt | Pending | Done _ -> ())
      slots;
    Array.to_list
      (Array.map (function Done v -> v | Pending | Raised _ -> assert false) slots)
  end

(* --- Interference sanitizer ----------------------------------------- *)

(* The pool's determinism contract says tasks share no unsynchronized
   mutable state. The sanitizer spot-checks that contract at runtime:
   after the parallel batch drains, a sample of tasks is re-executed
   sequentially in the calling domain and each rerun's result
   fingerprint is compared against the parallel one. A task whose
   result depends on what other tasks did to shared state (a consumed
   counter, a polluted memo table) is not idempotent, so its rerun
   diverges and the mismatch pinpoints the offending task index.

   The check is one-sided: a mismatch is always a real contract
   violation (or a task with inherent side effects, which the contract
   also forbids), but a clean pass only covers the sampled indices and
   the interleavings that actually happened. *)

let max_samples = 16

(* Up to [max_samples] evenly spaced indices, always including 0. *)
let sample_indices n =
  if n <= max_samples then List.init n Fun.id
  else List.init max_samples (fun k -> k * n / max_samples)

let fingerprint v =
  match Marshal.to_string v [ Marshal.Closures ] with
  | s -> Digest.to_hex (Digest.string s)
  | exception _ -> (
      (* ac3-lint: allow D005 — best-effort tag for unmarshalable values; sanitizer diagnostics only, never protocol state *)
      match Hashtbl.hash v with
      | h -> Printf.sprintf "unmarshalable:%d" h
      | exception _ -> "unfingerprintable")

let sanitize_results ~fingerprint:fp tasks results =
  let firsts = Array.of_list results in
  List.iter
    (fun index ->
      let first = fp firsts.(index) in
      let rerun =
        match tasks.(index) () with
        | v -> fp v
        | exception e -> "raised " ^ Printexc.to_string e
      in
      if not (String.equal first rerun) then raise (Interference { index; first; rerun }))
    (sample_indices (Array.length firsts))

let run ?jobs ?(sanitize = false) ?(fingerprint = fingerprint) tasks =
  count_batch (List.length tasks);
  let results = run_uncounted ?jobs tasks in
  if sanitize then sanitize_results ~fingerprint (Array.of_list tasks) results;
  results

let map ?jobs ?sanitize ?fingerprint f xs =
  run ?jobs ?sanitize ?fingerprint (List.map (fun x () -> f x) xs)

let mapi ?jobs ?sanitize ?fingerprint f xs =
  run ?jobs ?sanitize ?fingerprint (List.mapi (fun i x () -> f i x) xs)

(* Evaluate in index blocks of [jobs]: within a block every candidate
   runs (bounded speculation), across blocks we stop at the first block
   containing a [Some]. The winner is the lowest index overall, exactly
   what the sequential scan would have returned. *)
let first_success ?jobs thunks =
  let jobs = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  count_batch (List.length thunks);
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> take (k - 1) (x :: acc) rest
  in
  let rec go = function
    | [] -> None
    | remaining -> (
        let block, rest = take jobs [] remaining in
        match List.find_opt Option.is_some (run_uncounted ~jobs block) with
        | Some result -> result
        | None -> go rest)
  in
  go thunks
