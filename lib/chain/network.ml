(* Simulated gossip network for one blockchain (plus its clients).

   Message delivery is scheduled on the discrete-event engine with a
   uniformly random per-message latency. Partitions assign endpoints to
   groups; messages crossing group boundaries are dropped until the
   partition heals — exactly the failure the paper argues breaks
   hashlock/timelock protocols. *)

module Engine = Ac3_sim.Engine
module Rng = Ac3_sim.Rng

type message =
  | Block_msg of Block.t
  | Tx_msg of Tx.t
  (* Ancestor sync: a node missing [hash]'s block asks its peers; anyone
     holding it answers with a direct [Block_msg]. *)
  | Block_request of { requester : string; hash : string }

type endpoint = { id : string; deliver : message -> unit }

type t = {
  engine : Engine.t;
  rng : Rng.t;
  mutable endpoints : endpoint list;
  mutable min_delay : float;
  mutable max_delay : float;
  (* endpoint id -> partition group; endpoints absent from the table are in
     the implicit group -1 (all connected to each other). *)
  partition_groups : (string, int) Hashtbl.t;
  (* Chaos-injection surface: every reachable message survives an
     independent Bernoulli drop. *)
  mutable drop_probability : float;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

let create ?(min_delay = 0.05) ?(max_delay = 0.5) ~engine ~rng () =
  if min_delay < 0.0 || max_delay < min_delay then invalid_arg "Network.create: bad delays";
  {
    engine;
    rng;
    endpoints = [];
    min_delay;
    max_delay;
    partition_groups = Hashtbl.create 16;
    drop_probability = 0.0;
    sent = 0;
    delivered = 0;
    dropped = 0;
  }

let set_delays t ~min_delay ~max_delay =
  if min_delay < 0.0 || max_delay < min_delay then invalid_arg "Network.set_delays";
  t.min_delay <- min_delay;
  t.max_delay <- max_delay

let delays t = (t.min_delay, t.max_delay)

let set_drop_probability t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Network.set_drop_probability";
  t.drop_probability <- p

let register t ~id deliver =
  if List.exists (fun e -> String.equal e.id id) t.endpoints then
    invalid_arg (Printf.sprintf "Network.register: duplicate endpoint %S" id);
  t.endpoints <- { id; deliver } :: t.endpoints

let group_of t id = Option.value ~default:(-1) (Hashtbl.find_opt t.partition_groups id)

let reachable t ~from ~to_ = group_of t from = group_of t to_

(* Partition the network into the given groups. Unlisted endpoints share
   the implicit group. [heal] restores full connectivity. *)
let partition t groups =
  Hashtbl.reset t.partition_groups;
  List.iteri (fun g ids -> List.iter (fun id -> Hashtbl.replace t.partition_groups id g) ids) groups

let heal t = Hashtbl.reset t.partition_groups

(* One message to one endpoint: dropped if it crosses a partition (cut
   links carry nothing), else it survives the Bernoulli link drop and
   arrives after a uniform random delay. *)
let transmit t ~from e msg =
  t.sent <- t.sent + 1;
  if not (reachable t ~from ~to_:e.id) then t.dropped <- t.dropped + 1
  else if t.drop_probability > 0.0 && Rng.bernoulli t.rng t.drop_probability then
    t.dropped <- t.dropped + 1
  else begin
    t.delivered <- t.delivered + 1;
    let delay = Rng.uniform_range t.rng ~lo:t.min_delay ~hi:t.max_delay in
    Engine.schedule t.engine ~delay (fun () -> e.deliver msg)
  end

let send t ~from ~to_ msg =
  match List.find_opt (fun e -> String.equal e.id to_) t.endpoints with
  | None ->
      t.sent <- t.sent + 1;
      t.dropped <- t.dropped + 1
  | Some e -> transmit t ~from e msg

let broadcast t ~from msg =
  List.iter
    (fun e -> if not (String.equal e.id from) then transmit t ~from e msg)
    t.endpoints

let stats t = (t.sent, t.delivered, t.dropped)
