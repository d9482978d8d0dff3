(* Protocol semantics for the product automaton.

   Moves are the protocol-level events whose interleavings decide
   atomicity: conforming deploys/redeems/refunds (gated by the guards in
   [Ac3_flow.Protocol], which the dynamic protocols call too), timelock
   expiry, the witness network's decision, and a budgeted crash fault
   per party.

   Time follows maximal-progress semantics: the [Expire] move (advancing
   past the next timelock deadline) is enabled only when no conforming
   alive party has an enabled protocol action. This encodes the paper's
   synchrony assumption — any enabled action completes within Δ, before
   the next deadline — whose real-time feasibility is separately checked
   by the T-rules (lib/verify/timelock.ml). Without it, fault-free
   Herlihy would spuriously "lose the race" against its own timelocks.

   A [Crash] is pure withholding: the party stops acting but its executed
   history stays conforming. This is exactly Herlihy's deviation model —
   a conforming-but-crashed party is the victim the protocol is supposed
   to protect. *)

module Ac2t = Ac3_contract.Ac2t
module Keys = Ac3_crypto.Keys
module Hex = Ac3_crypto.Hex
module Timelock = Ac3_verify.Timelock
module Flow = Ac3_flow.Flow
module Protocol = Ac3_flow.Protocol
module Swap_template = Ac3_contract.Swap_template

type move =
  | Deploy of int  (** the edge's sender publishes its contract *)
  | Redeem of int  (** the edge's recipient redeems *)
  | Refund of int  (** the edge's sender refunds after expiry / RFauth *)
  | Crash of int  (** party stops acting forever (budgeted fault) *)
  | Expire  (** the next distinct timelock deadline passes *)
  | W_commit  (** witness network authorizes redemption (P -> RDauth) *)
  | W_abort  (** witness network authorizes refund (P -> RFauth) *)

type moves = {
  deploy : move array;
  redeem : move array;
  refund : move array;
  crash : move array;
}

type model = {
  profile : Flow.profile;
  graph : Ac2t.t;
  parties : Keys.public array;  (** index 0 is the leader *)
  edges : Ac2t.edge array;
  edge_from : int array;  (** sender party index per edge *)
  edge_to : int array;  (** recipient party index per edge *)
  expiry_rank : int array;  (** rank of the edge's expiry among distinct deadlines *)
  n_deadlines : int;
  crash_budget : int;
  moves : moves;  (** the per-edge and per-party moves, allocated once *)
}

(* ------------------------------------------------------------------ *)
(* Model construction *)

let party_index parties pk =
  let rec go i = if String.equal parties.(i) pk then i else go (i + 1) in
  go 0

let make ~profile ~graph ~delta ~timelock_slack ~crash_budget =
  let expiries =
    match profile with
    | Flow.Witness -> Ok []
    | Flow.Single_leader ->
        Timelock.assign ~graph ~delta ~timelock_slack ~start_time:0.0
        |> Result.map (List.map (fun a -> a.Timelock.expiry))
  in
  Result.map
    (fun expiries ->
      let parties = Array.of_list (Ac2t.participants graph) in
      let edges = Array.of_list (Ac2t.edges graph) in
      let deadlines = List.sort_uniq Float.compare expiries in
      let rank expiry = List.length (List.filter (fun d -> d < expiry) deadlines) in
      {
        profile;
        graph;
        parties;
        edges;
        edge_from = Array.map (fun (e : Ac2t.edge) -> party_index parties e.Ac2t.from_pk) edges;
        edge_to = Array.map (fun (e : Ac2t.edge) -> party_index parties e.Ac2t.to_pk) edges;
        expiry_rank = Array.of_list (List.map rank expiries);
        n_deadlines = List.length deadlines;
        crash_budget;
        moves =
          {
            deploy = Array.mapi (fun i _ -> Deploy i) edges;
            redeem = Array.mapi (fun i _ -> Redeem i) edges;
            refund = Array.mapi (fun i _ -> Refund i) edges;
            crash = Array.mapi (fun p _ -> Crash p) parties;
          };
      })
    expiries

(* Only the leader can produce the hashlock secret at the start. *)
let init m =
  Global_state.make
    ~edges:(Array.map (fun _ -> Swap_template.Unpublished) m.edges)
    ~knows:(Array.mapi (fun i _ -> m.profile = Flow.Single_leader && i = 0) m.parties)
    ~alive:(Array.map (fun _ -> true) m.parties)
    ~time:0 ~decision:Protocol.Undecided ~crashes_left:m.crash_budget

(* ------------------------------------------------------------------ *)
(* Move codes *)

let code = function
  | Expire -> 0
  | W_commit -> 1
  | W_abort -> 2
  | Deploy i -> 3 + (4 * i)
  | Redeem i -> 4 + (4 * i)
  | Refund i -> 5 + (4 * i)
  | Crash p -> 6 + (4 * p)

let move_of_code m c =
  match c with
  | 0 -> Expire
  | 1 -> W_commit
  | 2 -> W_abort
  | c -> (
      let i = (c - 3) lsr 2 in
      match (c - 3) land 3 with
      | 0 -> m.moves.deploy.(i)
      | 1 -> m.moves.redeem.(i)
      | 2 -> m.moves.refund.(i)
      | _ -> m.moves.crash.(i))

(* At most two moves per edge (a deploy needs an unpublished contract, a
   redeem or refund a published one), the two witness moves, [Expire]
   and a crash per party. *)
let max_moves m = (2 * Array.length m.edges) + 3 + Array.length m.parties

(* ------------------------------------------------------------------ *)
(* Enabledness: one scan of the state's bytes, fed to the shared guards *)

let unpublished = Global_state.status_char Swap_template.Unpublished

let published = Global_state.status_char Swap_template.Published

(* No edge byte in [i, stop) is unpublished. Top-level recursion, so the
   scans allocate no closure. *)
let rec all_published b i stop =
  i >= stop || (Bytes.get b i <> unpublished && all_published b (i + 1) stop)

(* Every contract party [p] receives on among edges [0 .. j] is
   published; edge 0's status byte is at [e0]. *)
let rec inputs_published m b e0 p j =
  j < 0
  || ((m.edge_to.(j) <> p || Bytes.get b (e0 + j) <> unpublished)
     && inputs_published m b e0 p (j - 1))

let push buf n c =
  buf.(n) <- c;
  n + 1

let is_set b i = Bytes.get b i = '1'

(* Hashlock edges [i ..]: every guard reads a per-edge or per-party fact. *)
let rec single_leader m b ~ne ~e0 ~k0 ~a0 ~all_published ~time buf n i =
  if i >= ne then n
  else
    let st = Bytes.get b (e0 + i) and p = m.edge_from.(i) and q = m.edge_to.(i) in
    let n =
      if st = unpublished then
        if
          is_set b (a0 + p)
          && Protocol.Single_leader.deploy ~leader:(p = 0)
               ~inputs_published:(inputs_published m b e0 p (ne - 1))
        then push buf n (3 + (4 * i))
        else n
      else if st = published then
        let n =
          if
            is_set b (a0 + q)
            && Protocol.Single_leader.redeem ~knows_secret:(is_set b (k0 + q)) ~leader:(q = 0)
                 ~all_published
          then push buf n (4 + (4 * i))
          else n
        in
        if is_set b (a0 + p) && Protocol.Single_leader.refund ~expired:(m.expiry_rank.(i) < time)
        then push buf n (5 + (4 * i))
        else n
      else n
    in
    single_leader m b ~ne ~e0 ~k0 ~a0 ~all_published ~time buf n (i + 1)

(* Witness edges [i ..]: the three guards read the decision alone, so
   the caller evaluates each once per state. *)
let rec witness m b ~ne ~e0 ~a0 ~deploy ~redeem ~refund buf n i =
  if i >= ne then n
  else
    let st = Bytes.get b (e0 + i) in
    let n =
      if st = unpublished then
        if deploy && is_set b (a0 + m.edge_from.(i)) then push buf n (3 + (4 * i)) else n
      else if st = published then
        let n = if redeem && is_set b (a0 + m.edge_to.(i)) then push buf n (4 + (4 * i)) else n in
        if refund && is_set b (a0 + m.edge_from.(i)) then push buf n (5 + (4 * i)) else n
      else n
    in
    witness m b ~ne ~e0 ~a0 ~deploy ~redeem ~refund buf n (i + 1)

(* A crash of every alive party [p ..]. *)
let rec crashes b a0 buf n p np =
  if p >= np then n
  else crashes b a0 buf (if is_set b (a0 + p) then push buf n (6 + (4 * p)) else n) (p + 1) np

(* The edge and party counts come from the state's header, the edge
   endpoints and deadlines from the model. *)
let scan m b pos buf =
  let ne = Global_state.n_edges_at b pos and np = Global_state.n_parties_at b pos in
  let e0 = pos + Global_state.header in
  let k0 = e0 + ne in
  let a0 = k0 + np in
  let all_published = all_published b e0 k0 in
  let n =
    match m.profile with
    | Flow.Single_leader ->
        let time = Global_state.time_at b pos in
        let n = single_leader m b ~ne ~e0 ~k0 ~a0 ~all_published ~time buf 0 0 in
        (* Maximal progress: a deadline passes only when no conforming
           alive party has a protocol move, and every code so far is one. *)
        if n = 0 && time < m.n_deadlines then push buf n 0 else n
    | Flow.Witness ->
        let decision = Global_state.decision_at b pos in
        let n =
          witness m b ~ne ~e0 ~a0 ~deploy:(Protocol.Witness.deploy decision)
            ~redeem:(Protocol.Witness.redeem decision) ~refund:(Protocol.Witness.refund decision)
            buf 0 0
        in
        let n = if Protocol.Witness.commit decision ~all_published then push buf n 1 else n in
        (* An abort may be requested at any moment: the model explores every timing. *)
        if Protocol.Witness.abort decision ~abort_requested:true then push buf n 2 else n
  in
  if Global_state.crashes_left_at b pos > 0 then crashes b a0 buf n 0 np else n

(* ------------------------------------------------------------------ *)
(* Transition function *)

(* The one or two fields the move writes. *)
let step m d c =
  match c with
  | 0 -> Global_state.set_time d (Global_state.time_at d 0 + 1)
  | 1 -> Global_state.set_decision d Protocol.Commit
  | 2 -> Global_state.set_decision d Protocol.Abort
  | c -> (
      let i = (c - 3) lsr 2 in
      match (c - 3) land 3 with
      | 0 -> Global_state.set_edge d i Swap_template.Published
      | 1 ->
          Global_state.set_edge d i Swap_template.Redeemed;
          (* The sender extracts the secret from the redeem transaction. *)
          if m.profile = Flow.Single_leader then Global_state.set_knows d m.edge_from.(i) true
      | 2 -> Global_state.set_edge d i Swap_template.Refunded
      | _ ->
          Global_state.set_alive d i false;
          Global_state.set_crashes_left d (Global_state.crashes_left_at d 0 - 1))

(* One copy of the source, then the fields the move writes. *)
let apply m s c =
  let d = Global_state.draft s in
  step m d c;
  Global_state.freeze d

(* ------------------------------------------------------------------ *)
(* Partial-order reduction *)

(* Singleton ample sets over commuting per-chain moves. A conforming
   protocol move [m'] may be explored alone when nothing enabled (or
   enabled before [m'] fires) is dependent with it:

   - the fault budget is spent, so no crash of [m']'s actor can precede
     it (crashes are dependent with every move of that party);
   - for AC3WN the witness has decided, so no witness move can flip the
     gate [m'] reads (and deploys read the undecided gate too);
   - no other enabled move touches the same edge (the only co-enabled
     same-edge pair is Redeem/Refund after expiry);
   - [Expire] is never co-enabled with a protocol move (maximal
     progress), and executing [m'] keeps it disabled.

   Every component of the state evolves monotonically, so the state
   graph is a DAG and the ignoring problem (cycle condition) is moot.
   Interleavings of the remaining commuting moves still collapse by
   state hashing; the reduction removes the transitions themselves. *)

(* Over codes: edge [i]'s deploy, redeem and refund are 3 + 4i, 4 + 4i
   and 5 + 4i. [scan] writes each edge's codes next to each other, so
   another enabled move on a protocol move's edge is one of its two
   neighbours in the buffer. The first protocol code with no such
   neighbour is the ample set. *)
let edge_of c = if c >= 3 && (c - 3) land 3 <> 3 then (c - 3) lsr 2 else -1

let clashes buf n k =
  let e = edge_of buf.(k) in
  (k > 0 && edge_of buf.(k - 1) = e) || (k + 1 < n && edge_of buf.(k + 1) = e)

let rec candidate buf n k =
  if k >= n then -1
  else if edge_of buf.(k) >= 0 && not (clashes buf n k) then k
  else candidate buf n (k + 1)

let ample m b pos buf n =
  let reducible =
    Global_state.crashes_left_at b pos = 0
    && (m.profile = Flow.Single_leader || Global_state.decision_at b pos <> Protocol.Undecided)
  in
  let k = if reducible then candidate buf n 0 else -1 in
  if k < 0 then n
  else begin
    buf.(0) <- buf.(k);
    1
  end

(* ------------------------------------------------------------------ *)
(* Pretty-printing *)

let short pk = Hex.short ~n:6 pk

let pp_edge m ppf i =
  let e = m.edges.(i) in
  Fmt.pf ppf "(%s->%s @%s)" (short e.Ac2t.from_pk) (short e.Ac2t.to_pk) e.Ac2t.chain

let pp_party m ppf p = Fmt.string ppf (short m.parties.(p))

let pp_move m ppf = function
  | Deploy i -> Fmt.pf ppf "deploy %a" (pp_edge m) i
  | Redeem i -> Fmt.pf ppf "redeem %a" (pp_edge m) i
  | Refund i -> Fmt.pf ppf "refund %a" (pp_edge m) i
  | Crash p -> Fmt.pf ppf "crash %a" (pp_party m) p
  | Expire -> Fmt.string ppf "next timelock expires"
  | W_commit -> Fmt.string ppf "witness authorizes redeem"
  | W_abort -> Fmt.string ppf "witness authorizes refund"

let pp_schedule m ppf moves =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut (fun ppf mv -> Fmt.pf ppf "%a" (pp_move m) mv)) moves
