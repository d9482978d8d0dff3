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

(** A fresh array of the edge statuses. *)
val edges : t -> Ac3_contract.Swap_template.status array

(** No edge is [Published]: {!Ac3_contract.Swap_template.settled}
    without decoding. *)
val settled : t -> bool

(** Some edge is [Redeemed] and another [Refunded]:
    {!Ac3_contract.Swap_template.mixed} without decoding. *)
val mixed : t -> bool

(** [of_bytes b pos] is a fresh copy of the state whose bytes start at
    [pos] in [b]; its length is read from the header. For stores that
    keep states as raw bytes: the bytes must have been copied from a
    state. *)
val of_bytes : Bytes.t -> int -> t

(** {2 Successor construction}

    {!Semantics.apply} builds a successor as a private copy of its
    source, writes the bytes its move changes, and freezes it. A draft
    must not be written after {!freeze}. *)

type draft

val draft : t -> draft

val set_edge : draft -> int -> Ac3_contract.Swap_template.status -> unit

val set_knows : draft -> int -> bool -> unit

val set_alive : draft -> int -> bool -> unit

val set_time : draft -> int -> unit

val set_decision : draft -> Ac3_flow.Protocol.decision -> unit

val set_crashes_left : draft -> int -> unit

val freeze : draft -> t

(** The recovery closure seed for M002: all parties acting again, no
    faults left. Returns its argument when nothing changes. *)
val revive : t -> t

(** ['U'], ['P'], ['D'] or ['F']: the edge's byte. *)
val status_char : Ac3_contract.Swap_template.status -> char

val decision_char : Ac3_flow.Protocol.decision -> char

val pp : Format.formatter -> t -> unit
