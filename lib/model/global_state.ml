(* The global state of one AC2T execution, as the model checker sees it.

   A state is the product of every contract's settlement status plus the
   protocol-level facts that gate transitions: who can produce the
   hashlock secret, who is still alive, how many timelock deadlines have
   passed, and (for AC3WN) the witness network's decision. Continuous
   time is abstracted into an index over the finitely many distinct
   timelock expiries: two clock values between the same two deadlines
   enable exactly the same moves, so nothing else is reachable.

   The state is packed into one string that doubles as its interning
   key: interning two equal states merges the commuting-diamond
   interleavings that reach them. The header carries the edge and party
   counts, so the per-party offsets are two reads away, and every field
   after it has a fixed width, so the encoding is injective without
   separators. The trailer (time, decision, crashes_left) sits at a
   fixed distance from the end.

   Every reader takes the state where it lies, at [pos] in some bytes
   (the explorer's arena); the string readers read a state at 0. *)

module Swap_template = Ac3_contract.Swap_template
module Protocol = Ac3_flow.Protocol

type t = string

let header = 4

(* time (8 bytes) at [width - 17], decision (1) at [width - 9],
   crashes_left (8) at [width - 8] *)
let trailer = 17

let status_char : Swap_template.status -> char = function
  | Unpublished -> 'U'
  | Published -> 'P'
  | Redeemed -> 'D'
  | Refunded -> 'F'

let status_of_char : char -> Swap_template.status = function
  | 'U' -> Unpublished
  | 'P' -> Published
  | 'D' -> Redeemed
  | _ -> Refunded

let decision_char : Protocol.decision -> char = function Undecided -> '?' | Commit -> 'D' | Abort -> 'F'

let decision_of_char : char -> Protocol.decision = function
  | '?' -> Undecided
  | 'D' -> Commit
  | _ -> Abort

let flag b = if b then '1' else '0'

(* --- Reading in place -------------------------------------------------- *)

let n_edges_at b pos = Bytes.get_uint16_le b pos

let n_parties_at b pos = Bytes.get_uint16_le b (pos + 2)

let width_at b pos = header + n_edges_at b pos + (2 * n_parties_at b pos) + trailer

let time_at b pos = Int64.to_int (Bytes.get_int64_le b (pos + width_at b pos - trailer))

let decision_at b pos = decision_of_char (Bytes.get b (pos + width_at b pos - 9))

let crashes_left_at b pos = Int64.to_int (Bytes.get_int64_le b (pos + width_at b pos - 8))

let edges_at b pos =
  Array.init (n_edges_at b pos) (fun i -> status_of_char (Bytes.get b (pos + header + i)))

(* Some edge byte in [i, stop) is [c]; top-level recursion, so the scans
   allocate no closure. *)
let rec has_edge b c i stop = i < stop && (Bytes.get b i = c || has_edge b c (i + 1) stop)

let settled_at b pos = not (has_edge b 'P' (pos + header) (pos + header + n_edges_at b pos))

let mixed_at b pos =
  let stop = pos + header + n_edges_at b pos in
  has_edge b 'D' (pos + header) stop && has_edge b 'F' (pos + header) stop

(* --- Strings ----------------------------------------------------------- *)

let bytes s = Bytes.unsafe_of_string s

let n_edges s = n_edges_at (bytes s) 0

let n_parties s = n_parties_at (bytes s) 0

let edge s i = status_of_char s.[header + i]

let knows s p = s.[header + n_edges s + p] = '1'

let alive s p = s.[header + n_edges s + n_parties s + p] = '1'

let time s = time_at (bytes s) 0

let decision s = decision_at (bytes s) 0

let crashes_left s = crashes_left_at (bytes s) 0

let of_bytes b pos = Bytes.sub_string b pos (width_at b pos)

(* --- Writing a copy ---------------------------------------------------- *)

let draft s = Bytes.of_string s

let set_edge d i st = Bytes.set d (header + i) (status_char st)

let set_knows d p v = Bytes.set d (header + n_edges_at d 0 + p) (flag v)

let set_alive d p v = Bytes.set d (header + n_edges_at d 0 + n_parties_at d 0 + p) (flag v)

let set_time d v = Bytes.set_int64_le d (Bytes.length d - trailer) (Int64.of_int v)

let set_decision d v = Bytes.set d (Bytes.length d - 9) (decision_char v)

let set_crashes_left d v = Bytes.set_int64_le d (Bytes.length d - 8) (Int64.of_int v)

let freeze = Bytes.unsafe_to_string

let make ~edges ~knows ~alive ~time ~decision ~crashes_left =
  let ne = Array.length edges and np = Array.length knows in
  if Array.length alive <> np then invalid_arg "Global_state.make: knows and alive differ in length";
  if ne > 0xFFFF || np > 0xFFFF then invalid_arg "Global_state.make: too many edges or parties";
  let d = Bytes.create (header + ne + (2 * np) + trailer) in
  Bytes.set_uint16_le d 0 ne;
  Bytes.set_uint16_le d 2 np;
  Array.iteri (set_edge d) edges;
  Array.iteri (set_knows d) knows;
  Array.iteri (set_alive d) alive;
  set_time d time;
  set_decision d decision;
  set_crashes_left d crashes_left;
  freeze d

(* Recovery closure for the deadlock rule: revive every crashed party and
   drop the remaining fault budget. A state counts as deadlocked only if
   it cannot settle even after every party comes back. *)
let revive d =
  Bytes.fill d (header + n_edges_at d 0 + n_parties_at d 0) (n_parties_at d 0) '1';
  set_crashes_left d 0

(* The status and flag bytes are the printed characters. *)
let pp ppf s =
  let ne = n_edges s and np = n_parties s in
  Fmt.pf ppf "edges=[%s] knows=[%s] alive=[%s] time=%d witness=%c" (String.sub s header ne)
    (String.sub s (header + ne) np)
    (String.sub s (header + ne + np) np)
    (time s)
    s.[String.length s - 9]
