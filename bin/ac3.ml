(* ac3: command-line driver for the AC3WN reproduction.

     ac3 swap     — execute an AC2T on the simulator with a chosen protocol
     ac3 verify   — static verification: graph lints, timelocks, state machines
     ac3 check    — model-check whole transactions across every interleaving
     ac3 flow     — economic-safety abstract interpretation: value-flow intervals
     ac3 analyze  — print the paper's analytical models (Sec 6)
     ac3 attack   — run 51% witness-attack races (Sec 6.3)
     ac3 chaos    — seeded fault-injection sweeps with the atomicity oracle
     ac3 load     — many-swap workload engine: concurrent AC2Ts over shared chains
     ac3 lint     — determinism & parallel-safety analysis of the repo's own sources
     ac3 metrics  — run one instrumented swap and print the metrics snapshot

   Examples:
     dune exec bin/ac3.exe -- swap --protocol ac3wn --scenario ring --parties 4
     dune exec bin/ac3.exe -- swap --protocol nolan --crash
     dune exec bin/ac3.exe -- verify
     dune exec bin/ac3.exe -- verify --protocol herlihy --scenario ring --slack=-1
     dune exec bin/ac3.exe -- verify --json
     dune exec bin/ac3.exe -- check --protocol ac3wn
     dune exec bin/ac3.exe -- check --protocol herlihy --scenario two-party --export ce.json
     dune exec bin/ac3.exe -- flow --json
     dune exec bin/ac3.exe -- flow --fault-budget 0
     dune exec bin/ac3.exe -- flow --profile single-leader --export f001.json
     dune exec bin/ac3.exe -- analyze
     dune exec bin/ac3.exe -- attack -q 0.35 --trials 500
     dune exec bin/ac3.exe -- chaos --seed 7 --runs 50
     dune exec bin/ac3.exe -- chaos --seed 7 --runs 50 --metrics-out metrics.json
     dune exec bin/ac3.exe -- chaos --seed 7 --shrink
     dune exec bin/ac3.exe -- chaos --replay test/chaos_corpus/some_plan.json
     dune exec bin/ac3.exe -- chaos --seed 7 --runs 20 --load 4
     dune exec bin/ac3.exe -- load --swaps 1000 --seed 42 --jobs 4
     dune exec bin/ac3.exe -- load --swaps 200 --clients 16 --think 2 --metrics-out load.json
     dune exec bin/ac3.exe -- metrics --protocol ac3wn *)

open Cmdliner
module U = Ac3_core.Universe
module S = Ac3_core.Scenarios
module D = Ac3_core.Driver
module A = Ac3_core.Ac3wn
module H = Ac3_core.Herlihy
module N = Ac3_core.Nolan
module T = Ac3_core.Ac3tw
module P = Ac3_core.Participant
module Analysis = Ac3_core.Analysis
module Attack = Ac3_core.Attack
module Ac2t = Ac3_contract.Ac2t
module Pool = Ac3_par.Pool
module Obs = Ac3_obs.Obs
module Metrics = Ac3_obs.Metrics
module Span = Ac3_obs.Span
module Flow = Ac3_flow.Flow
module Protocol = Ac3_flow.Protocol

(* Shared by the sweep-shaped subcommands (chaos, check, attack):
   worker-domain count, defaulting to what the hardware offers. Output
   is byte-identical for every value — parallelism only buys time. *)
let jobs_arg =
  Arg.(
    value
    & opt int (Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the sweep (default: the hardware's domain count; 1 = sequential). \
           Output is byte-identical for every value.")

(* --sanitize on the pool-backed subcommands: spot-check the
   determinism contract by re-executing sampled tasks and comparing
   result fingerprints (Ac3_par.Pool). A divergence exits 4. *)
let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Re-execute a sample of the parallel tasks sequentially and compare result \
           fingerprints; exit 4 if any task is not idempotent (cross-task mutable \
           interference).")

(* Input from outside the process that the command cannot use: a
   one-line diagnostic on stderr and exit 1, never an uncaught
   exception. *)
let refuse cmd fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "%s: %s@." cmd msg;
      1)
    fmt

(* [--parties] sizes the ring scenario from the fixed identity pool, so
   a larger ring is refused up front; values below 2 are clamped where
   the ring is built. *)
let with_parties cmd parties run =
  if parties > S.max_identities then
    refuse cmd "--parties must be at most %d (got %d)" S.max_identities parties
  else run ()

(* [--delta] and [--slack] feed the timelock arithmetic, where a NaN or
   infinity slips past every later comparison, and [--max-nodes] below 1
   would report a verdict over no exploration at all. [max_nodes_limit]
   is the largest node bound the command's explorer can index. *)
let with_bounds cmd ?(max_nodes_limit = max_int) ~delta ~slack ~max_nodes run =
  if not (Float.is_finite delta && delta > 0.0) then
    refuse cmd "--delta must be a positive finite number (got %g)" delta
  else if not (Float.is_finite slack) then refuse cmd "--slack must be finite (got %g)" slack
  else if max_nodes < 1 then refuse cmd "--max-nodes must be at least 1 (got %d)" max_nodes
  else if max_nodes > max_nodes_limit then
    refuse cmd "--max-nodes must be at most %d (got %d)" max_nodes_limit max_nodes
  else run ()

let sanitize_failure ~index ~first ~rerun =
  Fmt.epr
    "sanitize: task %d diverged on sequential rerun@.  parallel: %s@.  rerun:    %s@.  a task's \
     result depends on mutable state another task wrote — the determinism contract is broken@."
    index first rerun;
  4

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

(* --- observability export ---------------------------------------------- *)

(* --metrics-out / --trace-out, shared by the subcommands that run the
   simulator. Exports go to files, never to stdout, so enabling them
   cannot change a command's printed output — the byte-identity the CI
   asserts. *)

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's metrics registry as deterministic JSON: instruments in sorted \
           (name, labels) order, sim-time values only — byte-identical across hosts and \
           $(b,--jobs) values.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write the hierarchical span tree (phase spans on the virtual clock) as JSON.")

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

(* Pool totals count work *submitted* (jobs-independent by contract), so
   they are safe next to the simulator's deterministic metrics. *)
let record_pool_stats metrics =
  let batches, tasks = Pool.stats () in
  Metrics.add (Metrics.counter metrics "par.pool.batches") batches;
  Metrics.add (Metrics.counter metrics "par.pool.tasks") tasks

module Json = Ac3_crypto.Codec.Json

let export_obs ?metrics_out ?trace_out (obs : Obs.t) =
  Option.iter
    (fun path ->
      record_pool_stats obs.Obs.metrics;
      write_file path (Json.to_string_pretty (Metrics.to_json obs.Obs.metrics)))
    metrics_out;
  Option.iter
    (fun path -> write_file path (Json.to_string_pretty (Span.to_json obs.Obs.spans)))
    trace_out

(* Merge the observability contexts of a report list in list order —
   the same discipline Runner.sweep uses internally. *)
let merged_report_obs reports =
  let obs = Obs.create ~clock:(fun () -> 0.0) () in
  List.iter
    (fun (r : Ac3_chaos.Runner.report) ->
      Metrics.merge_into ~into:obs.Obs.metrics r.Ac3_chaos.Runner.obs.Obs.metrics;
      Span.import ~into:obs.Obs.spans r.Ac3_chaos.Runner.obs.Obs.spans)
    reports;
  obs

(* --- swap ------------------------------------------------------------------ *)

type protocol = Ac3wn | Herlihy | Nolan | Ac3tw

type scenario = Two_party | Ring | Cyclic | Disconnected | Supply_chain

let all_scenarios = [ Two_party; Ring; Cyclic; Disconnected; Supply_chain ]

(* Which scenarios each protocol family runs by default: single-leader
   protocols (Herlihy, and Nolan on two parties) need a graph one
   leader's secret can settle; the witness family takes every shape. *)
let flow_scenarios = function
  | Flow.Single_leader -> [ Two_party; Ring ]
  | Flow.Witness -> all_scenarios

(* Each built-in scenario's party count, chain names and graph builder:
   the one table behind both the simulated runs ([scenario_setup]) and
   the static passes ([scenario_graph]). Rings below two parties are
   clamped to two. *)
type scenario_desc = {
  n_parties : int;
  chain_names : string list;
  build : Ac3_crypto.Keys.t list -> timestamp:float -> Ac2t.t;
}

let describe ~scenario ~parties =
  let desc n_parties chain_names build =
    { n_parties; chain_names; build = build ~chains:chain_names }
  in
  match scenario with
  | Two_party ->
      {
        n_parties = 2;
        chain_names = [ "btc"; "eth" ];
        build = S.two_party_graph ~chain1:"btc" ~chain2:"eth";
      }
  | Ring ->
      let n = max 2 parties in
      desc n (List.init n (Printf.sprintf "chain%d")) S.ring_graph
  | Cyclic -> desc 3 [ "c1"; "c2"; "c3" ] S.cyclic_graph
  | Disconnected -> desc 4 [ "c1"; "c2"; "c3"; "c4" ] S.disconnected_graph
  | Supply_chain -> desc 4 [ "payments"; "titles"; "freight" ] S.supply_chain_graph

let scenario_setup ~scenario ~parties ~seed =
  let d = describe ~scenario ~parties in
  let ids = S.identities d.n_parties in
  let u, ps = S.make_universe ~seed ~chains:d.chain_names ids () in
  U.run_until u 100.0;
  (u, ps, d.build ids ~timestamp:(U.now u))

(* One protocol run over a scenario. With [crash] the second participant
   crashes at the protocol's critical moment (under AC3WN it recovers
   2000 s later and still redeems). *)
let execute_protocol ~crash u participants graph protocol =
  let crash_at event =
    if crash then [ (event, fun () -> P.crash (List.nth participants 1)) ] else []
  in
  match protocol with
  | Ac3wn ->
      let config =
        { (A.default_config ~witness_chain:"witness") with A.decision_depth = 4; timeout = 50_000.0 }
      in
      (if crash then
         ignore
           (Ac3_sim.Engine.schedule (U.engine u) ~delay:2000.0 (fun () ->
                P.recover (List.nth participants 1))));
      A.execute u ~config ~graph ~participants
        ~hooks:(crash_at (Protocol.Authorize_submitted Protocol.Commit))
        ()
  | Herlihy | Nolan ->
      let config = { (H.default_config ~delta:(U.max_delta u)) with H.timeout = 100_000.0 } in
      let hooks = crash_at (Protocol.Redeem 1) in
      if protocol = Nolan then N.execute u ~config ~graph ~participants ~hooks ()
      else H.execute u ~config ~graph ~participants ~hooks ()
  | Ac3tw ->
      let trent = Ac3_core.Trent.create u ~name:"trent" in
      let config = { T.default_config with T.timeout = 50_000.0 } in
      T.execute u ~config ~trent ~graph ~participants ()

let refused e =
  Fmt.epr "protocol refused the graph: %s@." e;
  1

let run_swap protocol scenario parties seed crash verbose metrics_out trace_out =
  with_parties "swap" parties @@ fun () ->
  setup_logs verbose;
  let u, participants, graph = scenario_setup ~scenario ~parties ~seed in
  Fmt.pr "Graph: %a@." Ac2t.pp graph;
  Fmt.pr "Shape: %a, Diam(D) = %d@." Ac2t.pp_shape (Ac2t.classify graph) (Ac2t.diameter graph);
  let code =
    match execute_protocol ~crash u participants graph protocol with
    | Error e -> refused e
    | Ok r ->
        Fmt.pr "@.Trace:@.%a@." (Ac3_sim.Trace.pp Protocol.pp_event) r.D.trace;
        Fmt.pr "Outcome: %a@." Ac3_core.Outcome.pp r.D.outcome;
        Fmt.pr "committed = %b, atomic = %b@." r.D.committed r.D.atomic;
        (match r.D.latency with
        | Some l -> Fmt.pr "latency = %.1f virtual s = %.2f Δ@." l (l /. U.max_delta u)
        | None -> Fmt.pr "did not complete within the timeout@.");
        if r.D.atomic then 0 else 3
  in
  U.snapshot_metrics u;
  export_obs ?metrics_out ?trace_out (U.obs u);
  code

let protocol_conv =
  Arg.enum [ ("ac3wn", Ac3wn); ("herlihy", Herlihy); ("nolan", Nolan); ("ac3tw", Ac3tw) ]

let scenario_conv =
  Arg.enum
    [
      ("two-party", Two_party);
      ("ring", Ring);
      ("cyclic", Cyclic);
      ("disconnected", Disconnected);
      ("supply-chain", Supply_chain);
    ]

let swap_cmd =
  let protocol =
    Arg.(value & opt protocol_conv Ac3wn & info [ "protocol"; "p" ] ~doc:"Protocol: ac3wn, herlihy, nolan, ac3tw.")
  in
  let scenario =
    Arg.(value & opt scenario_conv Two_party & info [ "scenario"; "s" ] ~doc:"Scenario graph.")
  in
  let parties = Arg.(value & opt int 3 & info [ "parties"; "n" ] ~doc:"Ring size (ring scenario).") in
  let seed = Arg.(value & opt int 2026 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let crash =
    Arg.(value & flag & info [ "crash" ] ~doc:"Crash the second participant at the critical moment.")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Debug logs.") in
  Cmd.v
    (Cmd.info "swap" ~doc:"Execute an atomic cross-chain transaction on the simulator")
    Term.(
      const run_swap $ protocol $ scenario $ parties $ seed $ crash $ verbose $ metrics_out_arg
      $ trace_out_arg)

(* --- verify ----------------------------------------------------------------- *)

module V = Ac3_verify.Verify
module Diagnostic = Ac3_verify.Diagnostic
module Probes = Ac3_verify.Probes

(* Scenario graphs need identities and a timestamp but no universe: the
   whole point of the static passes is that nothing touches a chain. *)
let scenario_graph ~scenario ~parties =
  let d = describe ~scenario ~parties in
  d.build (S.identities ~ns:"verify" d.n_parties) ~timestamp:1.0

let scenario_name = function
  | Two_party -> "two-party"
  | Ring -> "ring"
  | Cyclic -> "cyclic"
  | Disconnected -> "disconnected"
  | Supply_chain -> "supply-chain"

let print_section ~quiet (name, diags) =
  let errors = Diagnostic.errors diags in
  Fmt.pr "== %s: %s@." name (if errors = [] then "ok" else "FAIL");
  let shown =
    if quiet then List.filter (fun d -> d.Diagnostic.severity <> Diagnostic.Info) diags
    else diags
  in
  List.iter (fun d -> Fmt.pr "   %a@." Diagnostic.pp d) shown;
  errors <> []

(* The shared tail of verify and flow: either the --json envelope, or
   every section followed by a one-line summary ([ok_summary] when all
   pass). Exit 3 when any section carries an error. *)
let finish_sections cmd ~ok_summary ~json ~quiet sections =
  if json then begin
    print_string (Json.to_string_pretty (Diagnostic.sections_to_json sections));
    print_newline ();
    if List.exists (fun (_, diags) -> Diagnostic.has_errors diags) sections then 3 else 0
  end
  else begin
    let failures = List.filter (fun sec -> print_section ~quiet sec) sections in
    if failures = [] then begin
      Fmt.pr "@.%s: %d section(s), %s@." cmd (List.length sections) ok_summary;
      0
    end
    else begin
      Fmt.pr "@.%s: %d of %d section(s) FAILED@." cmd (List.length failures)
        (List.length sections);
      3
    end
  end

let run_verify protocol scenario parties delta slack max_nodes json quiet =
  with_parties "verify" parties @@ fun () ->
  with_bounds "verify" ~delta ~slack ~max_nodes @@ fun () ->
  let herlihy_over scenarios =
    List.map
      (fun s ->
        ( Printf.sprintf "herlihy preflight (%s)" (scenario_name s),
          V.herlihy_preflight ~graph:(scenario_graph ~scenario:s ~parties) ~delta
            ~timelock_slack:slack ~start_time:0.0 ))
      scenarios
  in
  let ac3wn_over scenarios =
    List.map
      (fun s ->
        ( Printf.sprintf "ac3wn preflight (%s)" (scenario_name s),
          V.ac3wn_preflight ~graph:(scenario_graph ~scenario:s ~parties) ))
      scenarios
  in
  let contracts () =
    [
      ("state machine (htlc)", V.contract ~name:"htlc" (Probes.htlc ~max_nodes ()));
      ( "state machine (ac3tw-swap)",
        V.contract ~name:"ac3tw-swap" (Probes.centralized ~max_nodes ()) );
      ( "state machine (ac3wn-witness)",
        V.contract ~name:"ac3wn-witness" (Probes.witness ~max_nodes ()) );
    ]
  in
  let sections =
    match (protocol, scenario) with
    | Some Herlihy, Some s | Some Nolan, Some s -> herlihy_over [ s ]
    | Some Ac3wn, Some s | Some Ac3tw, Some s -> ac3wn_over [ s ]
    | (Some Herlihy | Some Nolan), None -> herlihy_over (flow_scenarios Flow.Single_leader)
    | (Some Ac3wn | Some Ac3tw), None -> ac3wn_over (flow_scenarios Flow.Witness)
    | None, Some s -> herlihy_over [ s ] @ ac3wn_over [ s ]
    | None, None ->
        (* The default gate: every built-in scenario under the protocol
           profile that would actually run it, plus the contract state
           machines. *)
        herlihy_over (flow_scenarios Flow.Single_leader)
        @ ac3wn_over (flow_scenarios Flow.Witness)
        @ contracts ()
  in
  finish_sections "verify" ~ok_summary:"all ok" ~json ~quiet
    (List.map (fun (name, diags) -> (name, Diagnostic.dedupe diags)) sections)

let verify_cmd =
  let protocol =
    Arg.(
      value
      & opt (some protocol_conv) None
      & info [ "protocol"; "p" ] ~doc:"Restrict to one protocol's profile.")
  in
  let scenario =
    Arg.(
      value
      & opt (some scenario_conv) None
      & info [ "scenario"; "s" ] ~doc:"Restrict to one scenario graph.")
  in
  let parties = Arg.(value & opt int 4 & info [ "parties"; "n" ] ~doc:"Ring size (ring scenario).") in
  let delta = Arg.(value & opt float 15.0 & info [ "delta" ] ~doc:"Timelock unit (virtual seconds).") in
  let slack =
    Arg.(value & opt float 2.0 & info [ "slack" ] ~doc:"Extra deltas of timelock margin.")
  in
  let max_nodes =
    Arg.(
      value & opt int 256
      & info [ "max-nodes" ] ~doc:"Node bound for the contract state-machine pass (S005 when hit).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable output with stable field order.")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Hide info-level diagnostics.") in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Statically verify AC2T graphs, timelock assignments and contract state machines")
    Term.(const run_verify $ protocol $ scenario $ parties $ delta $ slack $ max_nodes $ json $ quiet)

(* --- analyze ----------------------------------------------------------------- *)

let run_analyze () =
  Fmt.pr "Sec 6.1 — latency (in Δ):@.";
  List.iter
    (fun (diam, h, w) -> Fmt.pr "  Diam=%2d  Herlihy=%5.1f  AC3WN=%.1f@." diam h w)
    (Analysis.figure10 ~max_diam:10);
  Fmt.pr "@.Sec 6.2 — cost (fd = 4000, ffc = 2000 chain units):@.";
  List.iter
    (fun n ->
      Fmt.pr "  N=%2d  Herlihy=%8.0f  AC3WN=%8.0f  overhead=1/N=%.3f@." n
        (Analysis.herlihy_cost ~n ~fd:4000.0 ~ffc:2000.0)
        (Analysis.ac3wn_cost ~n ~fd:4000.0 ~ffc:2000.0)
        (Analysis.cost_overhead_ratio ~n))
    [ 1; 2; 4; 8; 16 ];
  Fmt.pr "@.Sec 6.3 — required depth (Bitcoin witness):@.";
  List.iter
    (fun va ->
      Fmt.pr "  Va=$%-10.0f d > %d@." va (Analysis.required_depth ~va ~dh:6.0 ~ch:300_000.0))
    [ 10_000.0; 100_000.0; 1_000_000.0; 10_000_000.0 ];
  Fmt.pr "@.Table 1 / Sec 6.4 — throughput:@.";
  List.iter (fun (c, tps) -> Fmt.pr "  %-13s %4.0f tps@." c tps) Analysis.table1;
  Fmt.pr "  example: ETH x LTC witnessed by BTC => %.0f tps@."
    (Analysis.paper_example_throughput ());
  0

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze" ~doc:"Print the paper's analytical models (Sec 6)")
    Term.(const run_analyze $ const ())

(* --- attack -------------------------------------------------------------------- *)

let run_attack q trials seed jobs metrics_out trace_out =
  if not (q > 0.0 && q < 1.0) then refuse "attack" "-q must be in (0, 1) (got %g)" q
  else if trials < 1 then refuse "attack" "--trials must be positive (got %d)" trials
  else begin
    Fmt.pr "51%% rental attack on the witness network: q = %.2f, %d trials/depth@.@." q trials;
    Fmt.pr "  d | success rate | analytic | mean rental cost@.";
    Fmt.pr " ---+--------------+----------+-----------------@.";
    let estimates =
      Attack.depth_sweep_par ~jobs ~seed ~q ~depths:[ 0; 1; 2; 4; 6; 10; 20 ]
        ~block_interval:600.0 ~trials ~cost_per_hour:300_000.0 ()
    in
    List.iter
      (fun (r : Attack.estimate) ->
        Fmt.pr " %2d | %12.3f | %8.3f | $%.0f@." r.Attack.d r.Attack.success_rate
          r.Attack.analytic r.Attack.mean_cost_usd)
      estimates;
    (* The estimates are seed-deterministic, so they export as gauges. *)
    let obs = Obs.create ~clock:(fun () -> 0.0) () in
    List.iter
      (fun (r : Attack.estimate) ->
        let labels = [ ("d", string_of_int r.Attack.d) ] in
        let g name = Metrics.gauge obs.Obs.metrics ~labels name in
        Metrics.set (g "attack.success_rate") r.Attack.success_rate;
        Metrics.set (g "attack.analytic") r.Attack.analytic;
        Metrics.set (g "attack.mean_cost_usd") r.Attack.mean_cost_usd;
        Metrics.add (Metrics.counter obs.Obs.metrics ~labels "attack.trials") trials)
      estimates;
    export_obs ?metrics_out ?trace_out obs;
    Fmt.pr "@.Paper's rule of thumb: protecting Va requires d > Va*dh/Ch;@.";
    Fmt.pr "e.g. Va = $1M on a Bitcoin-like witness => d > %d.@."
      (Analysis.paper_example_depth ());
    0
  end

let attack_cmd =
  let q = Arg.(value & opt float 0.3 & info [ "q" ] ~doc:"Adversary hash-power share (0,1).") in
  let trials = Arg.(value & opt int 500 & info [ "trials" ] ~doc:"Monte-Carlo trials per depth.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic seed.") in
  Cmd.v
    (Cmd.info "attack" ~doc:"Simulate 51% attacks on the witness network (Sec 6.3)")
    Term.(const run_attack $ q $ trials $ seed $ jobs_arg $ metrics_out_arg $ trace_out_arg)

(* --- chaos -------------------------------------------------------------------- *)

module Plan = Ac3_chaos.Plan
module Runner = Ac3_chaos.Runner
module Shrink = Ac3_chaos.Shrink
module Repro = Ac3_chaos.Repro

let chaos_protocol_conv =
  Arg.enum (List.map (fun (name, p) -> (name, Runner.of_shared p)) Protocol.names)

let report_line (r : Runner.report) =
  let verdict =
    match r.Runner.exec with
    | Runner.Verdict v ->
        if v.Ac3_chaos.Oracle.pass then "pass"
        else if v.Ac3_chaos.Oracle.deposit_lost then "VIOLATION (deposit lost)"
        else "VIOLATION (non-absorbing)"
    | Runner.Rejected msg -> Printf.sprintf "rejected: %s" msg
    | Runner.Skipped msg -> Printf.sprintf "skipped: %s" msg
  in
  Fmt.pr "  seed=%-6d %-12s %-8s %s@." r.Runner.spec.Plan.seed
    (Plan.shape_to_string r.Runner.spec.Plan.shape)
    (Runner.protocol_name r.Runner.protocol)
    verdict

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let chaos_replay ~jobs ~metrics_out ~trace_out path =
  match Repro.of_string (read_file path) with
  | exception (Plan.Malformed msg | Ac3_crypto.Codec.Decode_error msg | Sys_error msg) ->
      refuse "chaos" "malformed reproducer %s: %s" path msg
  | repro ->
      Fmt.pr "replaying %s (%a; %a)@." path Plan.pp_spec repro.Repro.spec Plan.pp repro.Repro.plan;
      let results = Repro.replay ~jobs repro in
      List.iter (fun r -> Fmt.pr "%a@." Repro.pp_replay_result r) results;
      export_obs ?metrics_out ?trace_out
        (merged_report_obs (List.map (fun r -> r.Repro.report) results));
      if Repro.replay_ok results then begin
        Fmt.pr "replay: all %d expectation(s) matched@." (List.length results);
        0
      end
      else begin
        Fmt.pr "replay: MISMATCH — behavior differs from the recorded reproducer@.";
        3
      end

let chaos_shrink ~seed ~protocol ~load ~jobs ~out ~metrics_out ~trace_out =
  let spec, plan = Plan.sample ~load ~seed () in
  Fmt.pr "seed %d: %a@.plan:@.%a@." seed Plan.pp_spec spec Plan.pp plan;
  let protocols = match protocol with Some p -> [ p ] | None -> Runner.all_protocols in
  let reports = Runner.run_all ~protocols ~jobs ~spec ~plan () in
  List.iter report_line reports;
  match List.find_opt Runner.failed reports with
  | None ->
      export_obs ?metrics_out ?trace_out (merged_report_obs reports);
      Fmt.pr "no oracle violation at seed %d; nothing to shrink@." seed;
      0
  | Some failing ->
      let target = failing.Runner.protocol in
      Fmt.pr "shrinking the %s violation...@." (Runner.protocol_name target);
      let log line = Fmt.epr "%s@." line in
      let shrink_metrics = Metrics.create () in
      let shrunk = Shrink.shrink ~log ~jobs ~metrics:shrink_metrics ~spec ~protocol:target plan in
      Fmt.pr "shrunk plan (%d -> %d faults):@.%a@." (List.length plan) (List.length shrunk)
        Plan.pp shrunk;
      let shrunk_reports = Runner.run_all ~jobs ~spec ~plan:shrunk () in
      let obs = merged_report_obs (reports @ shrunk_reports) in
      Metrics.merge_into ~into:obs.Obs.metrics shrink_metrics;
      export_obs ?metrics_out ?trace_out obs;
      let note =
        Printf.sprintf "shrunk from seed %d; violating protocol: %s" seed
          (Runner.protocol_name target)
      in
      let repro = Repro.of_reports ~note ~spec ~plan:shrunk shrunk_reports in
      let json = Repro.to_string repro in
      (match out with
      | None -> Fmt.pr "reproducer:@.%s@." json
      | Some path ->
          let oc = open_out_bin path in
          output_string oc json;
          close_out oc;
          Fmt.pr "reproducer written to %s@." path);
      (match
         List.find_opt (fun (r : Runner.report) -> r.Runner.protocol = target) shrunk_reports
       with
      | Some { Runner.trace; chaos_trace; _ } ->
          Option.iter
            (fun t ->
              Fmt.pr "@.trace of the shrunk %s run:@.%a@." (Runner.protocol_name target)
                (Ac3_sim.Trace.pp Protocol.pp_event) t)
            trace;
          Option.iter
            (fun t ->
              if Ac3_sim.Trace.records t <> [] then
                Fmt.pr "@.faults that fired:@.%a@." (Ac3_sim.Trace.pp Protocol.pp_event) t)
            chaos_trace
      | None -> ());
      0

let run_chaos seed runs protocol load replay shrink out jobs sanitize verbose metrics_out trace_out =
  match replay with
  | Some path -> chaos_replay ~jobs ~metrics_out ~trace_out path
  | None when runs < 0 -> refuse "chaos" "--runs must be non-negative (got %d)" runs
  | None -> (
      (* [Plan.sample] refuses an out-of-range --load before any run
         starts or prints, in the sweep and the shrinker alike. *)
      try
        if shrink then chaos_shrink ~seed ~protocol ~load ~jobs ~out ~metrics_out ~trace_out
        else begin
          let protocols = match protocol with Some p -> [ p ] | None -> Runner.all_protocols in
          let on_report = if verbose then Some report_line else None in
          let spans = Option.is_some trace_out in
          match Runner.sweep ~protocols ?on_report ~jobs ~spans ~sanitize ~load ~seed ~runs () with
          | summary ->
              export_obs ?metrics_out ?trace_out summary.Runner.obs;
              Fmt.pr "%a@." Runner.pp_summary summary;
              if summary.Runner.unexplained_failures > 0 || summary.Runner.interval_violations > 0
              then 3
              else 0
          | exception Pool.Interference { index; first; rerun } ->
              sanitize_failure ~index ~first ~rerun
        end
      with Plan.Malformed msg -> refuse "chaos" "%s" msg)

let chaos_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base seed; run $(i,k) uses seed+$(i,k).") in
  let runs = Arg.(value & opt int 10 & info [ "runs" ] ~doc:"Number of sampled fault plans.") in
  let protocol =
    Arg.(
      value
      & opt (some chaos_protocol_conv) None
      & info [ "protocol"; "p" ] ~doc:"Restrict to one protocol (default: all three).")
  in
  let replay =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE" ~doc:"Replay a reproducer JSON and check its expectations.")
  in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ] ~doc:"Run the seed's plan once and greedily shrink any violation.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the shrunk reproducer JSON here.")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print a line per run.") in
  let load =
    Arg.(
      value & opt int 1
      & info [ "load" ] ~docv:"N"
          ~doc:
            "Concurrent background swaps sharing each run's universe (1 = none): faults then hit \
             contended mempools and blocks, not an idle system.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Deterministic fault-injection sweeps: seeded plans, atomicity oracle, shrinking")
    Term.(
      const run_chaos $ seed $ runs $ protocol $ load $ replay $ shrink $ out $ jobs_arg
      $ sanitize_arg $ verbose $ metrics_out_arg $ trace_out_arg)

(* --- check -------------------------------------------------------------------- *)

module MC = Ac3_model.Checker
module Model_repro = Ac3_chaos.Model_repro

let mc_protocol_conv = Arg.enum Protocol.names

(* The chaos-spec equivalent of each built-in scenario, so an exported
   counterexample concretizes against exactly the graph that was
   checked (Runner.build_graph is shared by both paths). *)
let check_spec ~scenario ~parties ~seed =
  match scenario with
  | Two_party -> { Plan.seed; shape = Plan.Two_party; parties = 2; nchains = 2; extra_edges = 0; load = 1 }
  | Ring ->
      let n = max 2 parties in
      { Plan.seed; shape = Plan.Ring; parties = n; nchains = n; extra_edges = 0; load = 1 }
  | Cyclic -> { Plan.seed; shape = Plan.Cyclic; parties = 3; nchains = 3; extra_edges = 0; load = 1 }
  | Disconnected ->
      { Plan.seed; shape = Plan.Disconnected; parties = 4; nchains = 4; extra_edges = 0; load = 1 }
  | Supply_chain ->
      { Plan.seed; shape = Plan.Supply_chain; parties = 4; nchains = 3; extra_edges = 0; load = 1 }

(* The model checker refuses Nolan beyond the two-party swap (T000). *)
let default_scenarios = function
  | MC.Nolan -> [ Two_party ]
  | (MC.Herlihy | MC.Ac3wn) as p -> flow_scenarios (Protocol.family p)

(* Report order of [check] sections when no protocol is given. *)
let check_protocols = MC.[ Herlihy; Nolan; Ac3wn ]

let export_counterexample ~path results =
  match
    List.find_opt (fun (_, _, _, r) -> r.MC.violations <> []) results
  with
  | None ->
      Fmt.epr "export: no violation to concretize@.";
      ()
  | Some (p, s, spec, r) ->
      let v = List.hd r.MC.violations in
      let note =
        Printf.sprintf "%s counterexample: %s on %s" v.Ac3_model.Rules.rule (MC.protocol_name p)
          (scenario_name s)
      in
      let crashes =
        List.filter_map
          (function Ac3_model.Semantics.Crash party -> Some party | _ -> None)
          v.Ac3_model.Rules.schedule
      in
      let outcome = Model_repro.concretize ~note ~spec ~protocol:p ~crashes () in
      let oc = open_out_bin path in
      output_string oc (Repro.to_string outcome.Model_repro.repro);
      close_out oc;
      Fmt.epr "export: %s concretized in %d dynamic run(s), %s; reproducer written to %s@."
        v.Ac3_model.Rules.rule outcome.Model_repro.attempts
        (if outcome.Model_repro.confirmed then "violation CONFIRMED on the simulator"
         else "not confirmed dynamically")
        path

let check_stats_json (s : MC.stats) =
  Json.Obj
    [
      ("nodes", Json.Int s.MC.nodes);
      ("transitions", Json.Int s.MC.transitions);
      ("por_skipped", Json.Int s.MC.por_skipped);
      ("peak_frontier", Json.Int s.MC.peak_frontier);
      ("truncated", Json.Bool s.MC.truncated);
    ]

let run_check protocol scenario parties delta slack crashes max_nodes json export seed jobs
    sanitize quiet metrics_out trace_out =
  with_parties "check" parties @@ fun () ->
  with_bounds "check" ~max_nodes_limit:Ac3_model.Explore.max_nodes_limit ~delta ~slack ~max_nodes
  @@ fun () ->
  if crashes < 0 then refuse "check" "--crashes must be non-negative (got %d)" crashes else
  let config =
    { MC.delta; timelock_slack = slack; start_time = 0.0; max_nodes; crash_budget = crashes }
  in
  let pairs =
    match (protocol, scenario) with
    | Some p, Some s -> [ (p, s) ]
    | Some p, None -> List.map (fun s -> (p, s)) (default_scenarios p)
    | None, Some s ->
        List.filter_map
          (fun p -> if List.mem s (default_scenarios p) then Some (p, s) else None)
          check_protocols
    | None, None ->
        List.concat_map (fun p -> List.map (fun s -> (p, s)) (default_scenarios p)) check_protocols
  in
  match
    Pool.map ~jobs ~sanitize
      (fun (p, s) ->
        let spec = check_spec ~scenario:s ~parties ~seed in
        let ids = S.identities ~ns:"check" spec.Plan.parties in
        let graph = Runner.build_graph ~spec ~ids ~timestamp:1.0 in
        let report = MC.check ~config ~protocol:p ~graph in
        (p, s, spec, report))
      pairs
  with
  | exception Pool.Interference { index; first; rerun } -> sanitize_failure ~index ~first ~rerun
  | results ->
  Option.iter (fun path -> export_counterexample ~path results) export;
  let section_name p s = Printf.sprintf "%s model (%s)" (MC.protocol_name p) (scenario_name s) in
  let ok = List.for_all (fun (_, _, _, r) -> MC.ok r) results in
  (* The model checker runs outside the simulator, so there is no
     virtual clock: spans are flat section markers at t = 0 and the
     exploration statistics export as labelled counters. *)
  let obs = Obs.create ~clock:(fun () -> 0.0) () in
  List.iter
    (fun (p, s, _, r) ->
      let labels =
        [ ("protocol", MC.protocol_name p); ("scenario", scenario_name s) ]
      in
      let c name = Metrics.counter obs.Obs.metrics ~labels name in
      Metrics.add (c "model.nodes") r.MC.stats.MC.nodes;
      Metrics.add (c "model.transitions") r.MC.stats.MC.transitions;
      Metrics.add (c "model.por_skipped") r.MC.stats.MC.por_skipped;
      Metrics.add (c "model.peak_frontier") r.MC.stats.MC.peak_frontier;
      if r.MC.stats.MC.truncated then Metrics.incr (c "model.truncated");
      Metrics.add (c "model.violations") (List.length r.MC.violations);
      ignore (Span.add obs.Obs.spans ~attrs:labels ~name:(section_name p s) ~start:0.0 ~stop:0.0 ()))
    results;
  export_obs ?metrics_out ?trace_out obs;
  if json then begin
    let sections =
      List.map
        (fun (p, s, _, r) ->
          Diagnostic.section_to_json ~name:(section_name p s)
            ~extra:
              [
                ("protocol", Json.String (MC.protocol_name p));
                ("scenario", Json.String (scenario_name s));
                ("stats", check_stats_json r.MC.stats);
              ]
            (Diagnostic.dedupe r.MC.diagnostics))
        results
    in
    print_string
      (Json.to_string_pretty (Json.Obj [ ("ok", Json.Bool ok); ("sections", Json.List sections) ]));
    print_newline ();
    if ok then 0 else 3
  end
  else begin
    List.iter
      (fun (p, s, _, r) ->
        ignore (print_section ~quiet (section_name p s, Diagnostic.dedupe r.MC.diagnostics));
        Fmt.pr "   %a@." MC.pp_stats r.MC.stats)
      results;
    if ok then begin
      Fmt.pr "@.check: %d section(s), all ok@." (List.length results);
      0
    end
    else begin
      let failed = List.filter (fun (_, _, _, r) -> not (MC.ok r)) results in
      Fmt.pr "@.check: %d of %d section(s) found violations@." (List.length failed)
        (List.length results);
      3
    end
  end

let check_cmd =
  let protocol =
    Arg.(
      value
      & opt (some mc_protocol_conv) None
      & info [ "protocol"; "p" ] ~doc:"Restrict to one protocol (default: all three).")
  in
  let scenario =
    Arg.(
      value
      & opt (some scenario_conv) None
      & info [ "scenario"; "s" ] ~doc:"Restrict to one scenario graph.")
  in
  let parties = Arg.(value & opt int 4 & info [ "parties"; "n" ] ~doc:"Ring size (ring scenario).") in
  let delta = Arg.(value & opt float 15.0 & info [ "delta" ] ~doc:"Timelock unit (virtual seconds).") in
  let slack =
    Arg.(value & opt float 2.0 & info [ "slack" ] ~doc:"Extra deltas of timelock margin.")
  in
  let crashes =
    Arg.(
      value & opt int 1
      & info [ "crashes" ] ~doc:"Fault budget: how many parties the adversary may crash.")
  in
  let max_nodes =
    Arg.(
      value & opt int 20_000
      & info [ "max-nodes" ] ~doc:"Bound on explored product states (M005 when hit).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable output with stable field order.")
  in
  let export =
    Arg.(
      value
      & opt (some string) None
      & info [ "export"; "o" ] ~docv:"FILE"
          ~doc:
            "Concretize the first counterexample into a chaos reproducer JSON (replayable with \
             $(b,ac3 chaos --replay)).")
  in
  let seed = Arg.(value & opt int 2026 & info [ "seed" ] ~doc:"Seed for the exported reproducer's universe.") in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Hide info-level diagnostics.") in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check whole transactions: explore every interleaving of protocol moves, timelock \
          expiries and crash faults, and emit replayable counterexamples")
    Term.(
      const run_check $ protocol $ scenario $ parties $ delta $ slack $ crashes $ max_nodes $ json
      $ export $ seed $ jobs_arg $ sanitize_arg $ quiet $ metrics_out_arg $ trace_out_arg)

(* --- flow ------------------------------------------------------------------- *)

module Flow_lint = Ac3_verify.Flow_lint

let flow_profile_conv =
  Arg.enum [ ("single-leader", Flow.Single_leader); ("witness", Flow.Witness) ]

let flow_profile_name = function
  | Flow.Single_leader -> "single-leader"
  | Flow.Witness -> "witness"

let export_flow_witness ~path ~parties ~seed results =
  match
    List.find_opt (fun (p, _, a) -> p = Flow.Single_leader && a.Flow.witnesses <> []) results
  with
  | None -> Fmt.epr "export: no F001 witness to concretize@."
  | Some (_, s, a) ->
      let w = List.hd a.Flow.witnesses in
      let spec = check_spec ~scenario:s ~parties ~seed in
      let note =
        Printf.sprintf "F001-crash-exposure witness: party %d on %s" w.Flow.victim_index
          (scenario_name s)
      in
      let outcome =
        Model_repro.concretize ~note ~spec ~protocol:Protocol.Herlihy ~crashes:w.Flow.crash ()
      in
      let oc = open_out_bin path in
      output_string oc (Repro.to_string outcome.Model_repro.repro);
      close_out oc;
      Fmt.epr "export: F001 concretized in %d dynamic run(s), %s; reproducer written to %s@."
        outcome.Model_repro.attempts
        (if outcome.Model_repro.confirmed then "exposure CONFIRMED on the simulator"
         else "not confirmed dynamically")
        path

let run_flow profile scenario parties budget json export seed jobs sanitize quiet =
  with_parties "flow" parties @@ fun () ->
  if budget < 0 then refuse "flow" "--fault-budget must be non-negative (got %d)" budget else
  let pairs =
    let profiles =
      match profile with Some p -> [ p ] | None -> [ Flow.Single_leader; Flow.Witness ]
    in
    List.concat_map
      (fun p ->
        let scenarios = match scenario with Some s -> [ s ] | None -> flow_scenarios p in
        List.map (fun s -> (p, s)) scenarios)
      profiles
  in
  match
    Pool.map ~jobs ~sanitize
      (fun (p, s) ->
        let spec = check_spec ~scenario:s ~parties ~seed in
        let ids = S.identities ~ns:"flow" spec.Plan.parties in
        let graph = Runner.build_graph ~spec ~ids ~timestamp:1.0 in
        (p, s, Flow.analyze ~fault_budget:budget ~profile:p graph))
      pairs
  with
  | exception Pool.Interference { index; first; rerun } -> sanitize_failure ~index ~first ~rerun
  | results ->
      Option.iter (fun path -> export_flow_witness ~path ~parties ~seed results) export;
      let sections =
        List.map
          (fun (p, s, a) ->
            ( Printf.sprintf "flow %s (%s, budget %d)" (flow_profile_name p) (scenario_name s)
                budget,
              Diagnostic.dedupe (Flow_lint.of_analysis a) ))
          results
      in
      finish_sections "flow" ~ok_summary:"every exposure inside its interval hull" ~json ~quiet
        sections

let flow_cmd =
  let profile =
    Arg.(
      value
      & opt (some flow_profile_conv) None
      & info [ "profile"; "p" ]
          ~doc:
            "Restrict to one commitment profile, $(b,single-leader) or $(b,witness) (default: \
             both).")
  in
  let scenario =
    Arg.(
      value
      & opt (some scenario_conv) None
      & info [ "scenario"; "s" ] ~doc:"Restrict to one scenario graph.")
  in
  let parties = Arg.(value & opt int 4 & info [ "parties"; "n" ] ~doc:"Ring size (ring scenario).") in
  let budget =
    Arg.(
      value & opt int 1
      & info [ "fault-budget" ]
          ~doc:
            "Crash faults the adversary may spend. 0 bounds crash-free executions only; any \
             positive budget widens every non-leader to its full crash exposure.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable output with stable field order.")
  in
  let export =
    Arg.(
      value
      & opt (some string) None
      & info [ "export"; "o" ] ~docv:"FILE"
          ~doc:
            "Concretize the first F001 crash witness into a chaos reproducer JSON (replayable \
             with $(b,ac3 chaos --replay)).")
  in
  let seed =
    Arg.(
      value & opt int 2026
      & info [ "seed" ] ~doc:"Seed for the analyzed graphs and the exported reproducer's universe.")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Hide info-level diagnostics.") in
  Cmd.v
    (Cmd.info "flow"
       ~doc:
         "Economic-safety abstract interpretation: per-participant intervals of net value deltas \
          reachable under any commit/abort/crash interleaving within a fault budget")
    Term.(
      const run_flow $ profile $ scenario $ parties $ budget $ json $ export $ seed $ jobs_arg
      $ sanitize_arg $ quiet)

(* --- lint ------------------------------------------------------------------- *)

module Lint = Ac3_lint.Lint

(* Static analysis over the repo's own sources: determinism and
   parallel-safety rules D001-D008. Same output conventions as verify:
   one section, Diagnostic rendering, shared --json schema, exit 3 on
   any unsuppressed finding. A scan that finds no sources is refused:
   a wrong --root or --under would otherwise pass the gate vacuously. *)
let run_lint root roots json quiet =
  let roots = if roots = [] then Lint.default_roots else roots in
  let outcome = Lint.run ~roots ~root () in
  if outcome.Lint.files = 0 then
    refuse "lint" "no .ml sources under %s in %s; refusing an empty scan"
      (String.concat ", " roots) root
  else begin
    let name = Printf.sprintf "lint (%s)" (String.concat " " roots) in
    let diags = outcome.Lint.findings @ outcome.Lint.notes in
    if json then begin
      print_string (Json.to_string_pretty (Diagnostic.sections_to_json [ (name, diags) ]));
      print_newline ()
    end
    else begin
      ignore (print_section ~quiet (name, diags));
      Fmt.pr "@.lint: %d file(s), %d finding(s), %d suppressed@." outcome.Lint.files
        (List.length outcome.Lint.findings)
        outcome.Lint.suppressed
    end;
    if Lint.ok outcome then 0 else 3
  end

let lint_cmd =
  let root =
    Arg.(
      value & opt dir "."
      & info [ "root" ] ~docv:"DIR" ~doc:"Repository checkout to scan (default: the current directory).")
  in
  let roots =
    Arg.(
      value & opt_all string []
      & info [ "under" ] ~docv:"DIR"
          ~doc:"Subtrees to scan, relative to $(b,--root) (default: lib and bin; repeatable).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable output with stable field order.")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Hide info-level diagnostics.") in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze the repo's own OCaml sources for determinism and parallel-safety \
          violations (rules D001-D008)")
    Term.(const run_lint $ root $ roots $ json $ quiet)

(* --- load ------------------------------------------------------------------- *)

module Workload = Ac3_load.Workload
module Load = Ac3_load.Engine

let run_load swaps seed users chains rate clients think zipf mix abandon deadline block_interval
    confirm_depth mempool_capacity runs jobs sanitize metrics_out trace_out =
  setup_logs false;
  let nolan, herlihy, ac3wn = mix in
  let arrival =
    match clients with
    | Some clients -> Workload.Closed_loop { clients; think }
    | None -> Workload.Open_loop { rate }
  in
  let config =
    {
      Workload.default with
      Workload.swaps;
      users;
      chains;
      arrival;
      mix = { Workload.nolan; herlihy; ac3wn };
      zipf_exponent = zipf;
      abandon_frac = abandon;
      deadline;
      block_interval;
      confirm_depth;
      mempool_capacity;
    }
  in
  match Load.sweep ~jobs ~sanitize ~seed ~runs config with
  | summary ->
      print_string (Load.render_sweep summary);
      export_obs ?metrics_out ?trace_out summary.Load.obs;
      let non_atomic = List.fold_left (fun acc r -> acc + r.Load.non_atomic) 0 summary.Load.reports in
      if non_atomic > 0 then 3 else 0
  | exception Invalid_argument msg -> refuse "load" "%s" msg
  | exception Pool.Interference { index; first; rerun } -> sanitize_failure ~index ~first ~rerun

let load_cmd =
  let swaps =
    Arg.(value & opt int 50 & info [ "swaps"; "n" ] ~doc:"Swaps to drive through the universe.")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Base seed; replication $(i,k) uses seed+$(i,k).")
  in
  let users = Arg.(value & opt int 16 & info [ "users" ] ~doc:"Identity pool size (>= 2).") in
  let chains =
    Arg.(value & opt int 3 & info [ "chains" ] ~doc:"Asset chains (the witness chain is extra).")
  in
  let rate =
    Arg.(
      value & opt float 1.0
      & info [ "rate" ] ~docv:"R"
          ~doc:"Open-loop Poisson arrival rate, swaps per virtual second (ignored with $(b,--clients)).")
  in
  let clients =
    Arg.(
      value
      & opt (some int) None
      & info [ "clients" ] ~docv:"N"
          ~doc:"Switch to a closed loop: $(docv) concurrent swappers, each launching its next swap \
                after its previous one finishes.")
  in
  let think =
    Arg.(
      value & opt float 5.0
      & info [ "think" ] ~doc:"Closed-loop think time between a client's swaps, virtual seconds.")
  in
  let zipf =
    Arg.(
      value & opt float 1.1
      & info [ "zipf" ] ~doc:"Popularity skew of users and chains (0 = uniform).")
  in
  let mix =
    Arg.(
      value
      & opt (t3 ~sep:',' float float float) (0.5, 0.3, 0.2)
      & info [ "mix" ] ~docv:"NOLAN,HERLIHY,AC3WN"
          ~doc:"Relative protocol weights for the traffic mix.")
  in
  let abandon =
    Arg.(
      value & opt float 0.15
      & info [ "abandon" ]
          ~doc:"Fraction of swaps whose responder walks away (crash or witness abort), forcing \
                the refund path.")
  in
  let deadline =
    Arg.(
      value & opt float 400.0
      & info [ "deadline" ] ~doc:"Virtual seconds a swap may stay in flight before the reaper \
                                  force-finishes it.")
  in
  let block_interval =
    Arg.(value & opt float 4.0 & info [ "block-interval" ] ~doc:"Block interval of every chain.")
  in
  let confirm_depth =
    Arg.(value & opt int 2 & info [ "confirm-depth" ] ~doc:"Confirmation depth of every chain.")
  in
  let mempool_capacity =
    Arg.(
      value & opt int 512
      & info [ "mempool-capacity" ]
          ~doc:"Per-node mempool bound; overload evicts by (class, fee) priority.")
  in
  let runs =
    Arg.(
      value & opt int 1
      & info [ "runs" ] ~doc:"Independent replications (consecutive seeds) swept on the domain pool.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive N concurrent AC2Ts through shared chains: Zipf-popular users and assets, \
          open/closed-loop arrivals, a mixed protocol population, and deterministic \
          throughput/latency reporting")
    Term.(
      const run_load $ swaps $ seed $ users $ chains $ rate $ clients $ think $ zipf $ mix
      $ abandon $ deadline $ block_interval $ confirm_depth $ mempool_capacity $ runs $ jobs_arg
      $ sanitize_arg $ metrics_out_arg $ trace_out_arg)

(* --- metrics ---------------------------------------------------------------- *)

(* One fully instrumented swap, with the registry and span tree printed
   instead of the usual trace dump — the quickest way to see what the
   observability layer measures. *)
let run_metrics protocol scenario parties seed metrics_out trace_out =
  with_parties "metrics" parties @@ fun () ->
  setup_logs false;
  let u, participants, graph = scenario_setup ~scenario ~parties ~seed in
  let code =
    match execute_protocol ~crash:false u participants graph protocol with
    | Error e -> refused e
    | Ok r -> if r.D.atomic then 0 else 3
  in
  U.snapshot_metrics u;
  Fmt.pr "Metrics snapshot (%d instruments):@.%a@." (Metrics.size (U.metrics u)) Metrics.pp
    (U.metrics u);
  Fmt.pr "@.Span tree:@.%a@." Span.pp (U.spans u);
  export_obs ?metrics_out ?trace_out (U.obs u);
  code

let metrics_cmd =
  let protocol =
    Arg.(value & opt protocol_conv Ac3wn & info [ "protocol"; "p" ] ~doc:"Protocol: ac3wn, herlihy, nolan, ac3tw.")
  in
  let scenario =
    Arg.(value & opt scenario_conv Two_party & info [ "scenario"; "s" ] ~doc:"Scenario graph.")
  in
  let parties = Arg.(value & opt int 3 & info [ "parties"; "n" ] ~doc:"Ring size (ring scenario).") in
  let seed = Arg.(value & opt int 2026 & info [ "seed" ] ~doc:"Deterministic seed.") in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run one instrumented swap and print the metrics registry and span tree")
    Term.(
      const run_metrics $ protocol $ scenario $ parties $ seed $ metrics_out_arg $ trace_out_arg)

let () =
  let doc = "Atomic commitment across blockchains (AC3WN reproduction)" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "ac3" ~doc)
          [
            swap_cmd; verify_cmd; check_cmd; flow_cmd; lint_cmd; analyze_cmd; attack_cmd; chaos_cmd;
            load_cmd; metrics_cmd;
          ]))
