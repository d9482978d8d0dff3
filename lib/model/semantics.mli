(** Protocol semantics for the product automaton: moves, enabledness,
    transition function, and the partial-order reduction. Every
    deploy, redeem, refund and witness move is gated by the family's
    guard in {!Ac3_flow.Protocol}, evaluated over the abstract state.

    Time follows maximal-progress semantics — [Expire] is enabled only
    when no conforming alive party has an enabled protocol action. This
    encodes the paper's synchrony assumption (any enabled action lands
    within Δ, before the next deadline); its real-time feasibility is
    checked separately by the T-rules. A [Crash] is pure withholding:
    the party stops acting but its executed history stays conforming,
    which is exactly Herlihy's deviation model. *)

module Ac2t = Ac3_contract.Ac2t
module Keys = Ac3_crypto.Keys
module Flow = Ac3_flow.Flow

type move =
  | Deploy of int  (** the edge's sender publishes its contract *)
  | Redeem of int  (** the edge's recipient redeems *)
  | Refund of int  (** the edge's sender refunds after expiry / RFauth *)
  | Crash of int  (** party stops acting forever (budgeted fault) *)
  | Expire  (** the next distinct timelock deadline passes *)
  | W_commit  (** witness network authorizes redemption (P -> RDauth) *)
  | W_abort  (** witness network authorizes refund (P -> RFauth) *)

(** Every [Deploy], [Redeem], [Refund] and [Crash] value of one model,
    indexed by edge or party: {!move_of_code} returns these rather than
    allocating a move per decoded code. *)
type moves = {
  deploy : move array;
  redeem : move array;
  refund : move array;
  crash : move array;
}

type model = {
  profile : Flow.profile;
      (** [Single_leader] is Herlihy's hashlock protocol
          (Nolan is its two-party case); [Witness] is AC3WN *)
  graph : Ac2t.t;
  parties : Keys.public array;  (** index 0 is the leader *)
  edges : Ac2t.edge array;
  edge_from : int array;  (** sender party index per edge *)
  edge_to : int array;  (** recipient party index per edge *)
  expiry_rank : int array;
      (** rank of the edge's expiry among distinct deadlines; empty for
          [Witness], whose contracts carry no timelock *)
  n_deadlines : int;
  crash_budget : int;
  moves : moves;
}

(** Builds the model; for [Single_leader] this runs
    {!Ac3_verify.Timelock.assign} from t = 0 (the model reads only the
    order of deadlines) and fails on graphs it rejects (e.g. not
    single-leader executable). *)
val make :
  profile:Flow.profile ->
  graph:Ac2t.t ->
  delta:float ->
  timelock_slack:float ->
  crash_budget:int ->
  (model, string) result

val init : model -> Global_state.t

(** {2 Move codes}

    The explorer stores, and the kernel below writes, a move as an int:
    [Expire] 0, [W_commit] 1, [W_abort] 2, and for edge or party [i]
    [Deploy] [3 + 4i], [Redeem] [4 + 4i], [Refund] [5 + 4i], [Crash]
    [6 + 4i]. *)

val code : move -> int

(** The model's preallocated move for a code. *)
val move_of_code : model -> int -> move

(** A buffer of this length holds every code {!scan} can write for a
    state of the model. *)
val max_moves : model -> int

(** {2 The kernel} *)

(** [scan m b pos buf] reads the state whose bytes start at [pos] in
    [b] once and writes the codes of its enabled moves to [buf] in the
    canonical order: per edge its deploy, redeem and refund, then
    [W_commit], [W_abort] and [Expire], then the crashes by party. It
    returns how many it wrote. The edge and party counts are the
    state's own (its header); the guards are {!Ac3_flow.Protocol}'s. *)
val scan : model -> Bytes.t -> int -> int array -> int

(** [ample m b pos buf n], after [n = scan m b pos buf], applies the
    partial-order reduction to the state's [n] codes: it returns [n]
    and leaves [buf] as it is, or moves the one ample code to [buf.(0)]
    and returns 1, pruning [n - 1] transitions. Sound because every
    state component is monotone (the state graph is a DAG, so the
    ignoring problem is moot); reduction only kicks in once the fault
    budget is spent and (for AC3WN) the witness has decided. *)
val ample : model -> Bytes.t -> int -> int array -> int -> int

(** [step m d c] writes the one or two fields move [c] changes into the
    state bytes [d] (at offset 0), in place. *)
val step : model -> Bytes.t -> int -> unit

(** The successor state by move [c]: one copy of the source's bytes
    with {!step} applied. States are immutable strings, so the input is
    never mutated. *)
val apply : model -> Global_state.t -> int -> Global_state.t

val pp_party : model -> Format.formatter -> int -> unit

val pp_move : model -> Format.formatter -> move -> unit

(** One move per line, in execution order. *)
val pp_schedule : model -> Format.formatter -> move list -> unit
