(* Work-stealing domain pool with a deterministic, order-preserving
   fold.

   Scheduling is self-balancing: the spawned domains and the calling
   domain all claim the next unclaimed task index in turn. Which domain
   runs which task is timing-dependent, but nothing observable is:
   results reach the merge callback in task order, on the calling
   domain, exceptions are re-raised lowest-index first, and tasks are
   required to derive any randomness from [split_seed] of their own
   index. Hence [fold ~jobs] is bit-identical to [fold ~jobs:1] for
   every jobs value, and so is [run], which is a fold that conses. *)

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

let resolve_jobs = function Some j -> max 1 j | None -> default_jobs ()

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

(* Set while a domain is inside a fold; a nested fold would park a
   worker on a pool that can never drain below it. *)
let in_pool = Domain.DLS.new_key (fun () -> false)

(* Lifetime totals for the observability layer: work *submitted*, not
   work *scheduled*. [fold] and its wrappers count their full task
   list; [first_success] counts its candidate list once, not the
   jobs-dependent number of candidates it actually evaluates — so the
   totals are identical for every [jobs] value and safe to export as
   deterministic metrics. *)
let total_tasks = Atomic.make 0

let total_batches = Atomic.make 0

let stats () = (Atomic.get total_batches, Atomic.get total_tasks)

let count_batch n =
  ignore (Atomic.fetch_and_add total_batches 1);
  ignore (Atomic.fetch_and_add total_tasks n)

(* --- The ordered fold ------------------------------------------------- *)

(* Everything below is guarded by [lock]. Task [i] may be claimed only
   while [i < next_merge + window], so the results computed but not yet
   merged fit a ring of [window] slots, task [i] in slot [i mod window].
   Once task [f] has raised, nothing at or past [f] is ever merged:
   later tasks still run (every task runs, as in a sequential loop that
   catches), but their results are dropped rather than stored, so they
   need no slot and the window no longer binds them. *)
type 'a state = {
  lock : Mutex.t;
  changed : Condition.t;  (** a slot filled or freed, or the fold stopped *)
  slots : 'a option array;
  mutable next_claim : int;
  mutable next_merge : int;
  mutable failed : (int * exn * Printexc.raw_backtrace) option;  (** the lowest raise so far *)
  mutable abandoned : bool;  (** the merge callback raised: claim nothing more *)
}

let fold_uncounted ?jobs ?window ~on_merge ~merge ~init tasks =
  if Domain.DLS.get in_pool then raise Nested;
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  let jobs = resolve_jobs jobs in
  let window = max 1 (match window with Some w -> w | None -> 4 * jobs) in
  let st =
    {
      lock = Mutex.create ();
      changed = Condition.create ();
      slots = Array.make window None;
      next_claim = 0;
      next_merge = 0;
      failed = None;
      abandoned = false;
    }
  in
  let stop_at () = match st.failed with Some (f, _, _) -> f | None -> n in
  let try_claim () =
    let i = st.next_claim in
    if i < n && (not st.abandoned) && (i >= stop_at () || i < st.next_merge + window) then begin
      st.next_claim <- i + 1;
      Some i
    end
    else None
  in
  let execute i =
    let result =
      match tasks.(i) () with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    Mutex.protect st.lock (fun () ->
        (if i < stop_at () then
           match result with
           | Ok v -> st.slots.(i mod window) <- Some v
           | Error (e, bt) -> st.failed <- Some (i, e, bt));
        Condition.broadcast st.changed)
  in
  let worker () =
    Domain.DLS.set in_pool true;
    let rec claim () =
      match try_claim () with
      | Some i -> Some i
      | None when st.next_claim >= n || st.abandoned -> None
      | None ->
          Condition.wait st.changed st.lock;
          claim ()
    in
    let rec loop () =
      match Mutex.protect st.lock claim with
      | Some i ->
          execute i;
          loop ()
      | None -> ()
    in
    loop ()
  in
  (* The calling domain merges and, when nothing is ready to merge,
     runs tasks itself. Merging comes first, so with [jobs = 1] every
     result is merged as soon as it exists. *)
  let rec next () =
    let m = st.next_merge in
    match st.slots.(m mod window) with
    | Some v when m < stop_at () ->
        st.slots.(m mod window) <- None;
        `Merge (m, v)
    | _ -> (
        match try_claim () with
        | Some i -> `Run i
        | None when m >= stop_at () && st.next_claim >= n -> `Drained
        | None ->
            Condition.wait st.changed st.lock;
            next ())
  in
  let rec drive acc =
    match Mutex.protect st.lock next with
    | `Drained -> acc
    | `Run i ->
        execute i;
        drive acc
    | `Merge (i, v) ->
        on_merge i v;
        let acc = merge acc v in
        (* Only now is the result merged: its window slot frees up. *)
        Mutex.protect st.lock (fun () ->
            st.next_merge <- i + 1;
            Condition.broadcast st.changed);
        drive acc
  in
  let spawned = List.init (max 0 (min (jobs - 1) (n - 1))) (fun _ -> Domain.spawn worker) in
  let outcome =
    Domain.DLS.set in_pool true;
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set in_pool false)
      (fun () ->
        match drive init with
        | acc -> Ok acc
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.protect st.lock (fun () ->
                st.abandoned <- true;
                Condition.broadcast st.changed);
            Error (e, bt))
  in
  List.iter Domain.join spawned;
  match (outcome, st.failed) with
  | Error (e, bt), _ | Ok _, Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | Ok acc, None -> acc

(* --- Interference sanitizer ----------------------------------------- *)

(* The pool's determinism contract says tasks share no unsynchronized
   mutable state. The sanitizer spot-checks that contract at runtime:
   the fold records the result fingerprint of a sample of tasks as it
   merges them (the fingerprint, never the result), and once the fold
   has drained those tasks are re-executed sequentially in the calling
   domain and their fingerprints compared. A task whose result depends
   on what other tasks did to shared state (a consumed counter, a
   polluted memo table) is not idempotent, so its rerun diverges and
   the mismatch pinpoints the offending task index.

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

(* [window] defaults to [4 * jobs] in [fold_uncounted]. *)
let fold_window ?jobs ?window ?(sanitize = false) ?(fingerprint = fingerprint) ~init ~merge tasks =
  count_batch (List.length tasks);
  if not sanitize then fold_uncounted ?jobs ?window ~on_merge:(fun _ _ -> ()) ~merge ~init tasks
  else begin
    let sampled = sample_indices (List.length tasks) in
    let firsts = ref [] in
    let on_merge i v = if List.mem i sampled then firsts := (i, fingerprint v) :: !firsts in
    let acc = fold_uncounted ?jobs ?window ~on_merge ~merge ~init tasks in
    let tasks = Array.of_list tasks in
    List.iter
      (fun (index, first) ->
        let rerun =
          match tasks.(index) () with
          | v -> fingerprint v
          | exception e -> "raised " ^ Printexc.to_string e
        in
        if not (String.equal first rerun) then raise (Interference { index; first; rerun }))
      (List.rev !firsts);
    acc
  end

let fold ?jobs ?sanitize ?fingerprint ~init ~merge tasks =
  fold_window ?jobs ?sanitize ?fingerprint ~init ~merge tasks

(* Every result is kept anyway, so a window as large as the batch holds
   nothing a smaller one would drop. *)
let run ?jobs ?sanitize ?fingerprint tasks =
  List.rev
    (fold_window ?jobs ~window:(List.length tasks) ?sanitize ?fingerprint ~init:[]
       ~merge:(fun acc v -> v :: acc)
       tasks)

let map ?jobs ?sanitize ?fingerprint f xs =
  run ?jobs ?sanitize ?fingerprint (List.map (fun x () -> f x) xs)

let mapi ?jobs ?sanitize ?fingerprint f xs =
  run ?jobs ?sanitize ?fingerprint (List.mapi (fun i x () -> f i x) xs)

(* Evaluate in index blocks of [jobs]: within a block every candidate
   runs (bounded speculation), across blocks we stop at the first block
   containing a [Some]. The winner is the lowest index overall, exactly
   what the sequential scan would have returned. *)
let first_success ?jobs thunks =
  let jobs = resolve_jobs jobs in
  count_batch (List.length thunks);
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> take (k - 1) (x :: acc) rest
  in
  let first acc v = match acc with Some _ -> acc | None -> v in
  let rec go = function
    | [] -> None
    | remaining -> (
        let block, rest = take jobs [] remaining in
        let on_merge _ _ = () in
        match fold_uncounted ~jobs ~window:jobs ~on_merge ~merge:first ~init:None block with
        | Some result -> Some result
        | None -> go rest)
  in
  go thunks
