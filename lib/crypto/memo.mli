(** Content-addressed memo tables for pure, expensive functions. Two
    tables exist: signature verdicts ([Keys.verify], table
    [keys.verify]) and MSS key material ([Mss.generate], table
    [mss.material]). Cheap values an object can own are not cached
    here but fixed when the object is built: transaction ids
    ([Ac3_chain.Tx.t]), block hashes ([Ac3_chain.Block.t]) and key
    addresses ([Keys.t]).

    Keys are the FULL serialized input — structural identity, never
    physical identity — so mutating a value after its first digest
    produces a different key and can never be served a stale result.
    Values must be pure functions of their key; under that contract the
    caches are invisible except for speed, which is what the
    differential test harness (test/test_fast.ml) asserts.

    Tables are domain-local: each domain of a parallel sweep warms its
    own cache, so lookups take no lock and cannot interleave across
    domains.

    [set_enabled false] turns every table into a pass-through — the
    reference mode the differential tests diff against. *)

type 'a t

(** [create ~name ~cap] — [cap] bounds the per-domain table; on
    overflow the table is dropped wholesale (the workloads are
    phase-local enough that rebuilding is cheap). *)
val create : name:string -> cap:int -> 'a t

(** [memo t key f] — cached [f ()], computing and remembering on miss. *)
val memo : 'a t -> string -> (unit -> 'a) -> 'a

(** Drop the current domain's entries of every table ever created. *)
val clear_all : unit -> unit

(** Global switch, [true] by default. With [false] every [memo] call
    computes [f ()] and remembers nothing. *)
val set_enabled : bool -> unit

val enabled : unit -> bool
