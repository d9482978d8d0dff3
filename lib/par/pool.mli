(** Deterministic work-stealing domain pool.

    {!fold} executes thunks on up to [jobs] OCaml 5 domains: every idle
    worker (the calling domain included) claims the next unclaimed task,
    so the pool self-balances regardless of task-length skew. Each
    result goes to a sequential merge callback on the calling domain, in
    task order, as soon as every earlier result has merged; at most a
    window of results waits to merge, so a sweep's memory does not grow
    with its task count. [jobs = 1] runs everything sequentially in the
    calling domain with no domains spawned, and every [jobs] value
    merges the same results in the same order. {!run} is the fold that
    collects a list.

    Determinism contract: the pool never hands a task any
    scheduling-dependent state. A task that needs randomness must
    derive its own stream from {!split_seed} of the root seed and its
    task index, never from a generator shared across tasks — then
    parallel output is bit-identical to sequential output.

    Tasks must not share mutable state with each other unless that
    state is domain-safe; the sweep drivers in this repo rebuild every
    universe from the task's seed, so their tasks are isolated by
    construction. *)

(** Raised when {!fold} (or a wrapper) is called from inside a pool
    task or a merge callback. Nested pools would deadlock the fixed
    worker budget, so the attempt is rejected eagerly; restructure the
    work as one flat task list instead. *)
exception Nested

(** Raised by {!fold} under [~sanitize:true] when a re-executed task's
    result fingerprint differs from the one recorded during the
    parallel batch: task [index] is not idempotent, i.e. it observed
    mutable state that other tasks (or its own first execution)
    changed. A raise is always a real determinism-contract violation;
    the absence of one only covers the sampled tasks and the
    interleavings that actually happened. *)
exception Interference of { index : int; first : string; rerun : string }

(** Domains the hardware supports ([Domain.recommended_domain_count]),
    at least 1. The default for every [?jobs] argument below and for
    the CLI [--jobs] flag. *)
val default_jobs : unit -> int

(** [split_seed ~root ~index] is a SplitMix64-derived, non-negative
    per-task seed: the [index]-th element of the stream anchored at
    [root]. Distinct (root, index) pairs give independent seeds, and
    the value depends only on the pair — never on which domain runs
    the task or when. *)
val split_seed : root:int -> index:int -> int

(** [(batches, tasks)] submitted to the pool by this process so far.
    Work is counted as *submitted*, not as *scheduled*: {!fold} and its
    wrappers count their full task list and {!first_success} counts its whole
    candidate list (not the jobs-dependent number it actually
    evaluates), so the totals are the same for every [jobs] value and
    safe to export as deterministic metrics. Per-domain utilization is
    jobs-dependent by nature and not tracked. *)
val stats : unit -> int * int

(** Digest of [Marshal.to_string v [Closures]]; falls back to a
    [Hashtbl.hash] tag for unmarshalable values (custom blocks). The
    default [?fingerprint] of {!run} — override it when results contain
    abstract state whose identity (not content) would differ between
    runs, e.g. closures capturing fresh refs. *)
val fingerprint : 'a -> string

(** [fold ?jobs ~init ~merge tasks] executes every thunk and folds the
    results with [merge] in task order, starting from [init]. [merge]
    runs on the calling domain only, one result at a time, each as soon
    as every earlier result has merged — so it may print, or fill
    structures the caller owns, without locks.

    At most [4 * jobs] results are computed but not yet merged: a
    worker that would run further ahead of the merge blocks until it
    catches up.

    If a task raises, every task still runs, results from the first
    failing index on are dropped unmerged, and that lowest-indexed
    exception is re-raised (with its backtrace) once all workers have
    drained. If [merge] raises, no further task starts and its
    exception is re-raised once the workers have drained.

    [sanitize] (default [false]) records the result fingerprints of up
    to 16 evenly spaced tasks as they merge — fingerprints only, never
    the results — then re-executes those tasks sequentially in the
    calling domain after the fold and compares; a mismatch raises
    {!Interference} with the lowest offending task index. Under the
    pool's determinism contract tasks are idempotent — they rebuild
    their world from their own seed — so the rerun is free of
    observable effects and any divergence means cross-task mutable
    interference. *)
val fold :
  ?jobs:int ->
  ?sanitize:bool ->
  ?fingerprint:('a -> string) ->
  init:'acc ->
  merge:('acc -> 'a -> 'acc) ->
  (unit -> 'a) list ->
  'acc

(** [run ?jobs tasks] is the {!fold} that returns every result in task
    order, with a window as large as the batch (it holds every result
    anyway). Exceptions and [sanitize] behave as in {!fold}. *)
val run :
  ?jobs:int -> ?sanitize:bool -> ?fingerprint:('a -> string) -> (unit -> 'a) list -> 'a list

(** [map ?jobs f xs] is [run ?jobs (List.map (fun x () -> f x) xs)]. *)
val map :
  ?jobs:int -> ?sanitize:bool -> ?fingerprint:('b -> string) -> ('a -> 'b) -> 'a list -> 'b list

(** [mapi] is {!map} with the task index. *)
val mapi :
  ?jobs:int ->
  ?sanitize:bool ->
  ?fingerprint:('b -> string) ->
  (int -> 'a -> 'b) ->
  'a list ->
  'b list

(** [first_success ?jobs thunks] is the first [Some] by task index, or
    [None] — the parallel equivalent of [List.find_map (fun f -> f ())].
    Candidates are evaluated speculatively in blocks of [jobs], so at
    most [jobs - 1] thunks beyond the winning index are ever run.
    Never sanitized: which candidates execute is jobs-dependent by
    design, so there is no stable batch to re-check against. *)
val first_success : ?jobs:int -> (unit -> 'a option) list -> 'a option
