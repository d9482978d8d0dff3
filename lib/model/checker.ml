(* Top-level driver: build the product model for a protocol over an AC2T,
   explore it, and run the M-rules.

   [check] with a positive crash budget asks "is the protocol
   fault-tolerant on this graph?" (Herlihy is not: one withholding party
   yields M001/M003). With a zero budget the question becomes "does the
   protocol violate atomicity even with no faults?": a clean protocol on
   a bad graph (e.g. a participant with no path to the leader) fails it,
   a good graph passes. *)

module Ac2t = Ac3_contract.Ac2t
module Diagnostic = Ac3_verify.Diagnostic

type protocol = Herlihy | Nolan | Ac3wn

let protocol_name = function Herlihy -> "herlihy" | Nolan -> "nolan" | Ac3wn -> "ac3wn"

let protocol_of_string = function
  | "herlihy" -> Some Herlihy
  | "nolan" -> Some Nolan
  | "ac3wn" -> Some Ac3wn
  | _ -> None

type config = {
  delta : float;
  timelock_slack : float;
  start_time : float;
  max_nodes : int;
  crash_budget : int;
}

let default_config =
  { delta = 15.0; timelock_slack = 2.0; start_time = 0.0; max_nodes = 20_000; crash_budget = 1 }

type stats = {
  nodes : int;
  transitions : int;
  por_skipped : int;
  peak_frontier : int;
  truncated : bool;
}

type report = {
  protocol : protocol;
  diagnostics : Diagnostic.t list;
  violations : Rules.violation list;
  stats : stats;
  model : Semantics.model option;  (** None when the model could not be built *)
}

let empty_stats = { nodes = 0; transitions = 0; por_skipped = 0; peak_frontier = 0; truncated = false }

let check ~config ~protocol ~graph =
  let sem_protocol = match protocol with Herlihy | Nolan -> Semantics.Herlihy | Ac3wn -> Semantics.Ac3wn in
  let shape_error =
    match protocol with
    | Nolan when Ac2t.classify graph <> Ac2t.Simple_swap ->
        Some "nolan runs only the two-party simple swap"
    | Herlihy | Nolan | Ac3wn -> None
  in
  match shape_error with
  | Some e ->
      {
        protocol;
        diagnostics = [ Diagnostic.error ~rule:"T000-not-executable" ~location:"graph" "%s" e ];
        violations = [];
        stats = empty_stats;
        model = None;
      }
  | None -> (
      match
        Semantics.make ~protocol:sem_protocol ~graph ~delta:config.delta
          ~timelock_slack:config.timelock_slack ~start_time:config.start_time
          ~crash_budget:config.crash_budget
      with
      | Error e ->
          {
            protocol;
            diagnostics = [ Diagnostic.error ~rule:"T000-not-executable" ~location:"graph" "%s" e ];
            violations = [];
            stats = empty_stats;
            model = None;
          }
      | Ok model ->
          let t = Explore.run ~max_nodes:config.max_nodes model in
          let flow =
            (* The M006 cross-validation: the intervals must bound every
               settled state the explorer reaches, under the same crash
               budget. A timelock-order error is the statically-known
               race that widens the crash-free hull. *)
            let profile =
              match protocol with
              | Herlihy | Nolan -> Ac3_flow.Flow.Single_leader
              | Ac3wn -> Ac3_flow.Flow.Witness
            in
            let static_races =
              match protocol with
              | Ac3wn -> false
              | Herlihy | Nolan ->
                  Diagnostic.has_errors
                    (Ac3_verify.Timelock.verify ~graph ~delta:config.delta
                       ~timelock_slack:config.timelock_slack ~start_time:config.start_time)
            in
            Ac3_flow.Flow.analyze ~fault_budget:config.crash_budget ~static_races ~profile graph
          in
          let diagnostics, violations = Rules.check ~flow t in
          {
            protocol;
            diagnostics;
            violations;
            stats =
              {
                nodes = t.Explore.n_nodes;
                transitions = t.Explore.n_transitions;
                por_skipped = t.Explore.por_skipped;
                peak_frontier = t.Explore.peak_frontier;
                truncated = t.Explore.truncated;
              };
            model = Some model;
          })

let ok report = not (Diagnostic.has_errors report.diagnostics)

let pp_stats ppf s =
  Fmt.pf ppf "nodes=%d transitions=%d por_skipped=%d peak_frontier=%d%s" s.nodes s.transitions
    s.por_skipped s.peak_frontier
    (if s.truncated then " TRUNCATED" else "")
