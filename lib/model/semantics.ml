(* Protocol semantics for the product automaton.

   Moves are the protocol-level events whose interleavings decide
   atomicity: conforming deploys/redeems/refunds (gated exactly as the
   dynamic protocols gate them), timelock expiry, the witness network's
   decision, and a budgeted crash fault per party.

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
open Global_state

type protocol = Herlihy | Ac3wn

type move =
  | Deploy of int  (** the edge's sender publishes its contract *)
  | Redeem of int  (** the edge's recipient redeems *)
  | Refund of int  (** the edge's sender refunds after expiry / RFauth *)
  | Crash of int  (** party stops acting forever (budgeted fault) *)
  | Expire  (** the next distinct timelock deadline passes *)
  | W_commit  (** witness network authorizes redemption (P -> RDauth) *)
  | W_abort  (** witness network authorizes refund (P -> RFauth) *)

type model = {
  protocol : protocol;
  graph : Ac2t.t;
  parties : Keys.public array;  (** index 0 is the leader *)
  edges : Ac2t.edge array;
  edge_from : int array;  (** sender party index per edge *)
  edge_to : int array;  (** recipient party index per edge *)
  depth : int array;  (** Herlihy deployment round per edge *)
  expiry_rank : int array;  (** rank of the edge's expiry among distinct deadlines *)
  n_deadlines : int;
  crash_budget : int;
}

(* ------------------------------------------------------------------ *)
(* Model construction *)

let party_index parties pk =
  let rec go i = if String.equal parties.(i) pk then i else go (i + 1) in
  go 0

let make ~protocol ~graph ~delta ~timelock_slack ~start_time ~crash_budget =
  let parties = Array.of_list (Ac2t.participants graph) in
  let edges = Array.of_list (Ac2t.edges graph) in
  let edge_from = Array.map (fun (e : Ac2t.edge) -> party_index parties e.Ac2t.from_pk) edges in
  let edge_to = Array.map (fun (e : Ac2t.edge) -> party_index parties e.Ac2t.to_pk) edges in
  match protocol with
  | Ac3wn ->
      Ok
        {
          protocol;
          graph;
          parties;
          edges;
          edge_from;
          edge_to;
          depth = Array.map (fun _ -> 0) edges;
          expiry_rank = Array.map (fun _ -> 0) edges;
          n_deadlines = 0;
          crash_budget;
        }
  | Herlihy -> (
      match Timelock.assign ~graph ~delta ~timelock_slack ~start_time with
      | Error e -> Error e
      | Ok assignments ->
          let arr = Array.of_list assignments in
          let deadlines =
            List.sort_uniq Float.compare (Array.to_list (Array.map (fun a -> a.Timelock.expiry) arr))
          in
          let rank expiry =
            let rec go i = function
              | [] -> invalid_arg "Semantics.make: missing deadline"
              | d :: rest -> if d = expiry then i else go (i + 1) rest
            in
            go 0 deadlines
          in
          Ok
            {
              protocol;
              graph;
              parties;
              edges;
              edge_from;
              edge_to;
              depth = Array.map (fun a -> a.Timelock.depth) arr;
              expiry_rank = Array.map (fun a -> rank a.Timelock.expiry) arr;
              n_deadlines = List.length deadlines;
              crash_budget;
            })

let init m : Global_state.t =
  {
    edges = Array.map (fun _ -> Unpublished) m.edges;
    (* Only the leader can produce the hashlock secret at the start. *)
    knows = Array.mapi (fun i _ -> m.protocol = Herlihy && i = 0) m.parties;
    alive = Array.map (fun _ -> true) m.parties;
    time = 0;
    witness = (match m.protocol with Herlihy -> W_none | Ac3wn -> W_undecided);
    crashes_left = m.crash_budget;
  }

(* ------------------------------------------------------------------ *)
(* Enabledness *)

let expired m (s : Global_state.t) i = m.protocol = Herlihy && m.expiry_rank.(i) < s.time

let all_published (s : Global_state.t) = Array.for_all (( <> ) Unpublished) s.edges

(* Herlihy deploys in sequential rounds by BFS depth: a conforming party
   publishes a round-d contract only once every earlier round's contract
   is on chain (it verifies its predecessors before locking funds). *)
let round_ready m (s : Global_state.t) i =
  let d = m.depth.(i) in
  let ready = ref true in
  Array.iteri (fun j dj -> if dj < d && s.edges.(j) = Unpublished then ready := false) m.depth;
  !ready

let deploy_enabled m (s : Global_state.t) i =
  s.edges.(i) = Unpublished
  && s.alive.(m.edge_from.(i))
  &&
  match m.protocol with
  | Herlihy -> (not (expired m s i)) && round_ready m s i
  | Ac3wn -> s.witness = W_undecided

let redeem_enabled m (s : Global_state.t) i =
  s.edges.(i) = Published
  && s.alive.(m.edge_to.(i))
  &&
  match m.protocol with
  | Herlihy ->
      s.knows.(m.edge_to.(i))
      && (not (expired m s i))
      (* A conforming leader reveals the secret (by redeeming) only once
         every contract of the transaction is published. *)
      && (m.edge_to.(i) <> 0 || all_published s)
  | Ac3wn -> s.witness = W_redeem

let refund_enabled m (s : Global_state.t) i =
  s.edges.(i) = Published
  && s.alive.(m.edge_from.(i))
  && match m.protocol with Herlihy -> expired m s i | Ac3wn -> s.witness = W_refund

(* Any conforming protocol action that maximal progress must not let a
   deadline overtake. *)
let urgent m s =
  let n = Array.length m.edges in
  let rec go i =
    i < n
    && (deploy_enabled m s i || redeem_enabled m s i || refund_enabled m s i || go (i + 1))
  in
  go 0

let expire_enabled m s = m.protocol = Herlihy && s.time < m.n_deadlines && not (urgent m s)

let crash_enabled s p = s.crashes_left > 0 && s.alive.(p)

let w_commit_enabled m s = m.protocol = Ac3wn && s.witness = W_undecided && all_published s

let w_abort_enabled m s = m.protocol = Ac3wn && s.witness = W_undecided

(* ------------------------------------------------------------------ *)
(* Transition function *)

(* Copy-on-write: a move copies only the array it writes and shares the
   rest with [s]. Sharing is safe because this function is the only
   writer of state arrays, and it writes only the fresh copies it has
   just made, so no state reachable from the explorer ever changes. *)
let apply m (s : Global_state.t) move =
  let set a i v =
    let a = Array.copy a in
    a.(i) <- v;
    a
  in
  match move with
  | Deploy i -> { s with edges = set s.edges i Published }
  | Redeem i ->
      let edges = set s.edges i Redeemed in
      (* The sender extracts the secret from the redeem transaction. *)
      let sender = m.edge_from.(i) in
      if m.protocol = Herlihy && not s.knows.(sender) then
        { s with edges; knows = set s.knows sender true }
      else { s with edges }
  | Refund i -> { s with edges = set s.edges i Refunded }
  | Crash p -> { s with alive = set s.alive p false; crashes_left = s.crashes_left - 1 }
  | Expire -> { s with time = s.time + 1 }
  | W_commit -> { s with witness = W_redeem }
  | W_abort -> { s with witness = W_refund }

(* All enabled moves, in a canonical order (determinism). *)
let enabled m s =
  let acc = ref [] in
  for p = Array.length m.parties - 1 downto 0 do
    if crash_enabled s p then acc := Crash p :: !acc
  done;
  if expire_enabled m s then acc := Expire :: !acc;
  if w_abort_enabled m s then acc := W_abort :: !acc;
  if w_commit_enabled m s then acc := W_commit :: !acc;
  for i = Array.length m.edges - 1 downto 0 do
    if refund_enabled m s i then acc := Refund i :: !acc;
    if redeem_enabled m s i then acc := Redeem i :: !acc;
    if deploy_enabled m s i then acc := Deploy i :: !acc
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
    s.crashes_left = 0
    && (m.protocol = Herlihy || s.witness = W_redeem || s.witness = W_refund)
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
