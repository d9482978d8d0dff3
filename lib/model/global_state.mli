(** Global states of the cross-contract product automaton.

    One state captures everything the M-rules need about a whole AC2T
    mid-protocol: each edge contract's settlement status, who knows the
    hashlock secret, who is still acting, how many timelock deadlines
    have passed, the witness network's decision, and the remaining
    fault budget. Every component evolves monotonically under the
    semantics, which is what makes the explored graph a DAG.

    A state is one immutable byte string, which is also its interning
    key. Layout, for [ne] edges and [np] parties:

    {v
    [0,2)              ne, u16 little-endian
    [2,4)              np, u16 little-endian
    [4,4+ne)           one status byte per edge: 'U' 'P' 'D' 'F'
    [4+ne,4+ne+np)     knows, one '0'/'1' byte per party
    [4+ne+np,4+ne+2np) alive, one '0'/'1' byte per party
    then               time (8 bytes LE), decision byte ('?' 'D' 'F'),
                       crashes_left (8 bytes LE)
    v}

    Every field has a fixed width and the header fixes the shape, so two
    states are equal exactly when their components are: [=], string
    hashing and [Hashtbl.Make (String)] all apply to the coerced
    string. Accessors are O(1) and allocate nothing. *)

type t = private string

(** A state from its components: [edges] indexed like [Ac2t.edges],
    [knows] and [alive] per party in first-appearance order ([alive] is
    false once a party crashes), [time] the number of distinct timelock
    deadlines already passed, [decision] the witness's (AC3WN: P ->
    RDauth is [Commit], P -> RFauth [Abort]; always [Undecided] for
    Nolan/Herlihy). Raises [Invalid_argument] when [knows] and [alive]
    differ in length or a count does not fit its field. *)
val make :
  edges:Ac3_contract.Swap_template.status array ->
  knows:bool array ->
  alive:bool array ->
  time:int ->
  decision:Ac3_flow.Protocol.decision ->
  crashes_left:int ->
  t

val n_edges : t -> int

val n_parties : t -> int

val edge : t -> int -> Ac3_contract.Swap_template.status

val knows : t -> int -> bool

val alive : t -> int -> bool

val time : t -> int

val decision : t -> Ac3_flow.Protocol.decision

val crashes_left : t -> int

(** [of_bytes b pos] is a fresh copy of the state whose bytes start at
    [pos] in [b]; its length is read from the header. For stores that
    keep states as raw bytes: the bytes must have been copied from a
    state. *)
val of_bytes : Bytes.t -> int -> t

(** {2 Reading a state in place}

    A store that keeps states as raw bytes reads the state whose bytes
    start at [pos] in [b] without copying it. Shape and offsets come
    from the header: edge [i]'s status byte is at [pos + header + i],
    then come the [n_parties] knows bytes and the [n_parties] alive
    bytes, as in the layout above. *)

(** The offset of edge 0's status byte: 4. *)
val header : int

val n_edges_at : Bytes.t -> int -> int

val n_parties_at : Bytes.t -> int -> int

val time_at : Bytes.t -> int -> int

val decision_at : Bytes.t -> int -> Ac3_flow.Protocol.decision

val crashes_left_at : Bytes.t -> int -> int

(** A fresh array of the edge statuses. *)
val edges_at : Bytes.t -> int -> Ac3_contract.Swap_template.status array

(** No edge is [Published]: {!Ac3_contract.Swap_template.settled}
    without decoding. *)
val settled_at : Bytes.t -> int -> bool

(** Some edge is [Redeemed] and another [Refunded]:
    {!Ac3_contract.Swap_template.mixed} without decoding. *)
val mixed_at : Bytes.t -> int -> bool

(** {2 Successor construction}

    {!Semantics.step} writes the bytes a move changes into a state's
    bytes (at offset 0): a fresh {!draft} that {!Semantics.apply}
    freezes, or a scratch record the explorer reuses. Bytes must not be
    written after {!freeze}. *)

val draft : t -> Bytes.t

val set_edge : Bytes.t -> int -> Ac3_contract.Swap_template.status -> unit

val set_knows : Bytes.t -> int -> bool -> unit

val set_alive : Bytes.t -> int -> bool -> unit

val set_time : Bytes.t -> int -> unit

val set_decision : Bytes.t -> Ac3_flow.Protocol.decision -> unit

val set_crashes_left : Bytes.t -> int -> unit

val freeze : Bytes.t -> t

(** The recovery closure seed for M002, in place: every party acting
    again, no faults left. *)
val revive : Bytes.t -> unit

(** ['U'], ['P'], ['D'] or ['F']: the edge's byte. *)
val status_char : Ac3_contract.Swap_template.status -> char

val decision_char : Ac3_flow.Protocol.decision -> char

val pp : Format.formatter -> t -> unit
