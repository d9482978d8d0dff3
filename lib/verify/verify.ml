(* Top-level driver composing the static passes. *)

module Ac2t = Ac3_contract.Ac2t

let contract = State_machine.verify

let herlihy_preflight ~graph ~delta ~timelock_slack ~start_time =
  let statics = Graph_lint.lint ~profile:Graph_lint.Single_leader graph in
  let clocks = Timelock.verify ~graph ~delta ~timelock_slack ~start_time in
  let econs =
    (* A timelock-order error is exactly the race that lets mixed
       settlements happen without crashes: widen the crash-free hull. *)
    Flow_lint.lint ~fault_budget:0
      ~static_races:(Diagnostic.has_errors clocks)
      ~profile:Ac3_flow.Flow.Single_leader graph
  in
  Diagnostic.dedupe (statics @ clocks @ econs)

let ac3wn_preflight ~graph =
  Diagnostic.dedupe
    (Graph_lint.lint ~profile:Graph_lint.Witness graph
    @ Flow_lint.lint ~fault_budget:0 ~profile:Ac3_flow.Flow.Witness graph)

let render ds = Fmt.str "%a" Diagnostic.pp_list ds
