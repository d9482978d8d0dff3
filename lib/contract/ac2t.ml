(* Atomic cross-chain transactions (paper Sec 3).

   An AC2T is a directed graph D = (V, E): vertices are participants
   (public keys) and each edge e = (u, v) is a sub-transaction moving
   asset e.a from u to v on blockchain e.BC. Participants agree on the
   graph by multisigning its canonical encoding together with a timestamp
   (Equation 1). *)

module Codec = Ac3_crypto.Codec
module Keys = Ac3_crypto.Keys
module Multisig = Ac3_crypto.Multisig
module Hex = Ac3_crypto.Hex
open Ac3_chain

type edge = {
  from_pk : Keys.public;
  to_pk : Keys.public;
  amount : Amount.t;
  chain : string; (* e.BC: the blockchain carrying this sub-transaction *)
}

type t = {
  edges : edge list;
  timestamp : float; (* distinguishes identical transactions (Eq. 1's t) *)
}

let create ~edges ~timestamp =
  if edges = [] then invalid_arg "Ac2t.create: no edges";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if String.equal e.from_pk e.to_pk then invalid_arg "Ac2t.create: self-edge";
      if Amount.is_zero e.amount then invalid_arg "Ac2t.create: zero-amount edge";
      (* Two byte-identical edges would deploy two contracts with the same
         canonical encoding; the redeem of one is replayable on the other. *)
      let key = (e.from_pk, e.to_pk, Amount.to_string e.amount, e.chain) in
      if Hashtbl.mem seen key then invalid_arg "Ac2t.create: duplicate edge";
      Hashtbl.add seen key ())
    edges;
  { edges; timestamp }

let edges t = t.edges

(* Participants in first-appearance order, without duplicates. *)
let participants t =
  List.fold_left
    (fun acc e ->
      let add acc pk = if List.mem pk acc then acc else acc @ [ pk ] in
      add (add acc e.from_pk) e.to_pk)
    [] t.edges

let chains t =
  List.sort_uniq String.compare (List.map (fun e -> e.chain) t.edges)

let encode_edge w e =
  Codec.Writer.fixed w ~len:32 e.from_pk;
  Codec.Writer.fixed w ~len:32 e.to_pk;
  Amount.encode w e.amount;
  Codec.Writer.string w e.chain

let decode_edge r =
  let from_pk = Codec.Reader.fixed r ~len:32 in
  let to_pk = Codec.Reader.fixed r ~len:32 in
  let amount = Amount.decode r in
  let chain = Codec.Reader.string r in
  { from_pk; to_pk; amount; chain }

let encode w t =
  Codec.Writer.string w "ac2t-graph";
  Codec.Writer.list w encode_edge t.edges;
  Codec.Writer.float w t.timestamp

let decode r =
  let tag = Codec.Reader.string r in
  if not (String.equal tag "ac2t-graph") then
    raise (Codec.Decode_error "Ac2t: bad graph tag");
  let edges = Codec.Reader.list r decode_edge in
  let timestamp = Codec.Reader.float r in
  { edges; timestamp }

(* The canonical bytes all participants multisign: (D, t) of Equation 1. *)
let to_bytes t = Codec.encode encode t

let of_bytes s = Codec.decode decode s

(* ms(D): every participant signs the canonical encoding. *)
let multisign t identities = Multisig.create ~message:(to_bytes t) identities

let verify_multisig t ms =
  String.equal (Multisig.message ms) (to_bytes t)
  && Multisig.verify ~expected_signers:(participants t) ms

(* --- Graph structure (Sec 5.3, Sec 6.1) -------------------------------- *)

let vertex_index t =
  let vs = participants t in
  (List.length vs, fun pk ->
    let rec find i = function
      | [] -> invalid_arg "Ac2t: unknown participant"
      | v :: rest -> if String.equal v pk then i else find (i + 1) rest
    in
    find 0 vs)

let adjacency t =
  let n, index = vertex_index t in
  let adj = Array.make n [] in
  List.iter (fun e -> adj.(index e.from_pk) <- index e.to_pk :: adj.(index e.from_pk)) t.edges;
  (n, adj)

(* BFS distances from [src] over the directed edges; -1 if unreachable. *)
let bfs n adj src =
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.push src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.push v q
        end)
      adj.(u)
  done;
  dist

(* Diam(D) as the paper uses it: the longest shortest directed path from
   any vertex to any other *including itself* — a vertex's distance to
   itself is the length of the shortest directed cycle through it, so the
   two-vertex swap (A <-> B) has diameter 2. Unreachable pairs are
   ignored. *)
let diameter t =
  let n, adj = adjacency t in
  let best = ref 0 in
  for u = 0 to n - 1 do
    let dist = bfs n adj u in
    for v = 0 to n - 1 do
      if v <> u && dist.(v) > !best then best := dist.(v)
    done;
    (* Shortest cycle through u: one step to each successor, then shortest
       path back. *)
    List.iter
      (fun v ->
        let d = (bfs n adj v).(u) in
        if d >= 0 && d + 1 > !best then best := d + 1)
      adj.(u)
  done;
  !best

(* Weak connectivity: ignoring edge direction, is the graph one piece? *)
let is_connected t =
  let n, adj = adjacency t in
  let undirected = Array.make n [] in
  Array.iteri
    (fun u vs ->
      List.iter
        (fun v ->
          undirected.(u) <- v :: undirected.(u);
          undirected.(v) <- u :: undirected.(v))
        vs)
    adj;
  let dist = bfs n undirected 0 in
  Array.for_all (fun d -> d >= 0) dist

(* Does any directed cycle exist among vertices for which [keep] holds?
   (DFS three-colour.) *)
let cyclic_among t keep =
  let n, adj = adjacency t in
  let colour = Array.make n 0 in
  let rec visit u =
    colour.(u) <- 1;
    let found =
      List.exists
        (fun v -> keep v && (colour.(v) = 1 || (colour.(v) = 0 && visit v)))
        adj.(u)
    in
    colour.(u) <- 2;
    found
  in
  let rec scan u = u < n && ((keep u && colour.(u) = 0 && visit u) || scan (u + 1)) in
  scan 0

let is_cyclic t = cyclic_among t (fun _ -> true)

(* Nolan's and Herlihy's single-leader protocols require the graph to be
   acyclic once the leader is removed (Sec 5.3); Figure 7a violates this
   for every choice of leader. *)
let cyclic_without_leader t leader =
  let _n, index = vertex_index t in
  let li = index leader in
  cyclic_among t (fun v -> v <> li)

let single_leader_executable t leader =
  is_connected t && not (cyclic_without_leader t leader)

type shape = Simple_swap | Cyclic | Disconnected | Dag

(* Classification used by the Fig 7 experiment: which graphs the baseline
   protocols can or cannot execute. *)
let classify t =
  if not (is_connected t) then Disconnected
  else if List.length (participants t) = 2 && List.length t.edges = 2 then Simple_swap
  else if is_cyclic t then Cyclic
  else Dag

let pp_shape ppf = function
  | Simple_swap -> Fmt.string ppf "simple-swap"
  | Cyclic -> Fmt.string ppf "cyclic"
  | Disconnected -> Fmt.string ppf "disconnected"
  | Dag -> Fmt.string ppf "dag"

let pp ppf t =
  Fmt.pf ppf "AC2T[t=%.1f]" t.timestamp;
  List.iter
    (fun e ->
      Fmt.pf ppf " %s->%s:%a@%s" (Hex.short ~n:6 e.from_pk) (Hex.short ~n:6 e.to_pk) Amount.pp
        e.amount e.chain)
    t.edges
