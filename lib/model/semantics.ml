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

let make ~profile ~graph ~delta ~timelock_slack ~start_time ~crash_budget =
  let expiries =
    match profile with
    | Flow.Witness -> Ok []
    | Flow.Single_leader ->
        Timelock.assign ~graph ~delta ~timelock_slack ~start_time
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
(* Enabledness: the abstract state's facts, fed to the shared guards *)

let unpublished s i = Global_state.edge s i = Swap_template.Unpublished

let all_published s =
  let rec go i = i < 0 || ((not (unpublished s i)) && go (i - 1)) in
  go (Global_state.n_edges s - 1)

(* Every contract party [p] receives on is published. *)
let inputs_published m s p =
  let rec go j = j < 0 || ((m.edge_to.(j) <> p || not (unpublished s j)) && go (j - 1)) in
  go (Array.length m.edges - 1)

let deploy_enabled m s i =
  let p = m.edge_from.(i) in
  unpublished s i
  && Global_state.alive s p
  &&
  match m.profile with
  | Flow.Single_leader ->
      Protocol.Single_leader.deploy ~leader:(p = 0) ~inputs_published:(inputs_published m s p)
  | Flow.Witness -> Protocol.Witness.deploy (Global_state.decision s)

let redeem_enabled m s ~all_published i =
  let p = m.edge_to.(i) in
  Global_state.edge s i = Swap_template.Published
  && Global_state.alive s p
  &&
  match m.profile with
  | Flow.Single_leader ->
      Protocol.Single_leader.redeem ~knows_secret:(Global_state.knows s p) ~leader:(p = 0)
        ~all_published
  | Flow.Witness -> Protocol.Witness.redeem (Global_state.decision s)

let refund_enabled m s i =
  Global_state.edge s i = Swap_template.Published
  && Global_state.alive s m.edge_from.(i)
  &&
  match m.profile with
  | Flow.Single_leader ->
      Protocol.Single_leader.refund ~expired:(m.expiry_rank.(i) < Global_state.time s)
  | Flow.Witness -> Protocol.Witness.refund (Global_state.decision s)

(* Any conforming protocol action that maximal progress must not let a
   deadline overtake. *)
let urgent m s ~all_published =
  let n = Array.length m.edges in
  let rec go i =
    i < n
    && (deploy_enabled m s i
       || redeem_enabled m s ~all_published i
       || refund_enabled m s i
       || go (i + 1))
  in
  go 0

let expire_enabled m s ~all_published =
  m.profile = Flow.Single_leader
  && Global_state.time s < m.n_deadlines
  && not (urgent m s ~all_published)

let crash_enabled s p = Global_state.crashes_left s > 0 && Global_state.alive s p

(* ------------------------------------------------------------------ *)
(* Transition function *)

(* One copy of the source, then the one or two fields the move writes. *)
let apply m s move =
  let d = Global_state.draft s in
  (match move with
  | Deploy i -> Global_state.set_edge d i Swap_template.Published
  | Redeem i ->
      Global_state.set_edge d i Swap_template.Redeemed;
      (* The sender extracts the secret from the redeem transaction. *)
      if m.profile = Flow.Single_leader then Global_state.set_knows d m.edge_from.(i) true
  | Refund i -> Global_state.set_edge d i Swap_template.Refunded
  | Crash p ->
      Global_state.set_alive d p false;
      Global_state.set_crashes_left d (Global_state.crashes_left s - 1)
  | Expire -> Global_state.set_time d (Global_state.time s + 1)
  | W_commit -> Global_state.set_decision d Protocol.Commit
  | W_abort -> Global_state.set_decision d Protocol.Abort);
  Global_state.freeze d

(* All enabled moves, in a canonical order (determinism). *)
let enabled m s =
  let all_published = all_published s in
  let acc = ref [] in
  for p = Array.length m.parties - 1 downto 0 do
    if crash_enabled s p then acc := m.moves.crash.(p) :: !acc
  done;
  if expire_enabled m s ~all_published then acc := Expire :: !acc;
  if m.profile = Flow.Witness then begin
    let decision = Global_state.decision s in
    (* An abort may be requested at any moment: the model explores every timing. *)
    if Protocol.Witness.abort decision ~abort_requested:true then acc := W_abort :: !acc;
    if Protocol.Witness.commit decision ~all_published then acc := W_commit :: !acc
  end;
  for i = Array.length m.edges - 1 downto 0 do
    if refund_enabled m s i then acc := m.moves.refund.(i) :: !acc;
    if redeem_enabled m s ~all_published i then acc := m.moves.redeem.(i) :: !acc;
    if deploy_enabled m s i then acc := m.moves.deploy.(i) :: !acc
  done;
  !acc

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

let same_edge a b =
  match (a, b) with
  | (Deploy i | Redeem i | Refund i), (Deploy j | Redeem j | Refund j) -> i = j
  | _ -> false

let reduced m s =
  let moves = enabled m s in
  let reducible =
    Global_state.crashes_left s = 0
    && (m.profile = Flow.Single_leader || Global_state.decision s <> Protocol.Undecided)
  in
  if not reducible then (moves, 0)
  else
    let is_protocol = function Deploy _ | Redeem _ | Refund _ -> true | _ -> false in
    let candidate =
      List.find_opt
        (fun mv ->
          is_protocol mv
          && not (List.exists (fun other -> other != mv && same_edge mv other) moves))
        moves
    in
    match candidate with
    | Some mv -> ([ mv ], List.length moves - 1)
    | None -> (moves, 0)

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
