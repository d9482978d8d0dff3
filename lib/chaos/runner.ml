(* Chaos runs: execute each commitment protocol against the same seeded
   universe spec and fault plan, and judge the outcomes with the oracle.

   Everything downstream of (spec, plan, protocol) is deterministic: the
   universe is rebuilt fresh from spec.seed for every protocol (so a
   fault schedule perturbs each protocol identically, not a universe
   already mutated by the previous run), identities are namespaced by
   seed and protocol so MSS keys are fresh, and the graph is derived
   from spec.seed alone. Running the same plan twice yields byte-equal
   traces. *)

module Rng = Ac3_sim.Rng
module Pool = Ac3_par.Pool
module Trace = Ac3_sim.Trace
module Obs = Ac3_obs.Obs
module Metrics = Ac3_obs.Metrics
module Span = Ac3_obs.Span
module Keys = Ac3_crypto.Keys
module Amount = Ac3_chain.Amount
module Ac2t = Ac3_contract.Ac2t
module Universe = Ac3_core.Universe
module Scenarios = Ac3_core.Scenarios
module Herlihy = Ac3_core.Herlihy
module Nolan = Ac3_core.Nolan
module Driver = Ac3_core.Driver
module Ac3wn = Ac3_core.Ac3wn

type protocol = P_nolan | P_herlihy | P_ac3wn

let all_protocols = [ P_nolan; P_herlihy; P_ac3wn ]

let protocol_name = function P_nolan -> "nolan" | P_herlihy -> "herlihy" | P_ac3wn -> "ac3wn"

let protocol_of_string = function
  | "nolan" -> Some P_nolan
  | "herlihy" -> Some P_herlihy
  | "ac3wn" -> Some P_ac3wn
  | _ -> None

type exec =
  | Verdict of Oracle.verdict
  | Rejected of string  (** the protocol refused the graph *)
  | Skipped of string  (** not applicable (Nolan beyond two parties) *)

type report = {
  protocol : protocol;
  spec : Plan.spec;
  plan : Plan.t;
  exec : exec;
  flow_violations : Ac3_flow.Flow.violation list;
      (** settled deltas outside the static value intervals — a lib/flow
          soundness bug by construction, like [unexplained] *)
  trace : Trace.t option;  (** the protocol's own event log *)
  chaos_trace : Trace.t option;  (** universe log: the faults that fired *)
  obs : Obs.t;  (** the run universe's metrics and spans *)
}

let failed r = match r.exec with Verdict v -> not v.Oracle.pass | Rejected _ | Skipped _ -> false

(* A dynamic safety violation with no fault injected and a clean static
   verdict would mean the harness itself is broken. *)
let unexplained r =
  failed r && r.plan = []
  && (match r.exec with Verdict v -> Oracle.static_ok v | Rejected _ | Skipped _ -> false)

(* ------------------------------------------------------------------ *)
(* Universe and graph construction *)

let block_interval = 5.0

let confirm_depth = 3

let warmup = 60.0

let protocol_timeout = 500.0

(* Seeded ring with chords: always connected, possibly cyclic without a
   leader (then Herlihy rejects it, which the sweep reports as such). *)
let random_graph ~spec ~ids ~timestamp =
  let rng = Rng.create (spec.Plan.seed lxor 0x5bd1e995) in
  let arr = Array.of_list ids in
  let n = Array.length arr in
  let chains = Array.of_list (Plan.chain_names spec) in
  let nch = Array.length chains in
  let pk i = Keys.public arr.(i) in
  let amount k = Amount.of_int ((k + 1) * 10_000) in
  let ring =
    List.init n (fun i ->
        {
          Ac2t.from_pk = pk i;
          to_pk = pk ((i + 1) mod n);
          amount = amount i;
          chain = chains.(i mod nch);
        })
  in
  let chords =
    List.init spec.Plan.extra_edges (fun k ->
        let i = Rng.int rng n in
        let j = (i + 1 + Rng.int rng (n - 1)) mod n in
        {
          Ac2t.from_pk = pk i;
          to_pk = pk j;
          amount = amount (n + k);
          chain = chains.(Rng.int rng nch);
        })
  in
  Ac2t.create ~edges:(ring @ chords) ~timestamp

let build_graph ~spec ~ids ~timestamp =
  let chains = Plan.chain_names spec in
  match spec.Plan.shape with
  | Plan.Two_party -> (
      match chains with
      | [ c1; c2 ] -> Scenarios.two_party_graph ~chain1:c1 ~chain2:c2 ids ~timestamp
      | _ -> assert false)
  | Plan.Ring -> Scenarios.ring_graph ~chains ids ~timestamp
  | Plan.Cyclic -> Scenarios.cyclic_graph ~chains ids ~timestamp
  | Plan.Disconnected -> Scenarios.disconnected_graph ~chains ids ~timestamp
  | Plan.Supply_chain -> Scenarios.supply_chain_graph ~chains ids ~timestamp
  | Plan.Random -> random_graph ~spec ~ids ~timestamp

let build_universe ?instrument ~spec ~protocol () =
  let ns = Printf.sprintf "chaos%d-%s" spec.Plan.seed (protocol_name protocol) in
  let ids = Scenarios.identities ~ns ~fresh:true spec.Plan.parties in
  (* Background-load identities (spec.load - 1 extra swaps, two parties
     each) must exist at genesis to be premined; with load = 1 the list
     is empty and the universe is byte-identical to before the knob. *)
  let bg_ids =
    List.init
      (2 * (spec.Plan.load - 1))
      (fun k -> Keys.fresh (Printf.sprintf "%s:bg%d" ns k))
  in
  let universe, participants =
    Scenarios.make_universe ~seed:spec.Plan.seed ~block_interval ~confirm_depth ~nodes:2
      ?instrument ~chains:(Plan.chain_names spec) (ids @ bg_ids) ()
  in
  Universe.run_until universe warmup;
  let main = List.filteri (fun i _ -> i < spec.Plan.parties) participants in
  let bg = List.filteri (fun i _ -> i >= spec.Plan.parties) participants in
  (universe, main, ids, bg)

(* ------------------------------------------------------------------ *)
(* One protocol under one plan *)

(* Background load: spec.load - 1 concurrent two-party swaps between
   dedicated identities, launched before the protocol under test and
   sharing its chains, mempools and fault schedule. They ride the same
   engine the protocol's execute drives; whatever is still unsettled
   when the protocol finishes is finished as-is (its refund paths may
   simply not have run within the horizon). The oracle judges only the
   protocol's own graph — the load exists to contend for blocks. *)
let launch_background ~universe ~spec ~bg =
  let nch = List.length (Plan.chain_names spec) in
  let chains = Array.of_list (Plan.chain_names spec) in
  let delta = Universe.max_delta universe in
  let config = { (Herlihy.default_config ~delta) with timeout = protocol_timeout } in
  let now = Universe.now universe in
  let bg = Array.of_list bg in
  List.init (spec.Plan.load - 1) (fun k ->
      let pa = bg.(2 * k) and pb = bg.((2 * k) + 1) in
      let ca = chains.(k mod nch) and cb = chains.((k + 1) mod nch) in
      let graph =
        Ac2t.create
          ~edges:
            [
              {
                Ac2t.from_pk = Ac3_core.Participant.public pa;
                to_pk = Ac3_core.Participant.public pb;
                amount = Amount.of_int (30_000 + k);
                chain = ca;
              };
              {
                Ac2t.from_pk = Ac3_core.Participant.public pb;
                to_pk = Ac3_core.Participant.public pa;
                amount = Amount.of_int (40_000 + k);
                chain = cb;
              };
            ]
          ~timestamp:now
      in
      match Nolan.launch universe ~config ~graph ~participants:[ pa; pb ] () with
      | Ok h -> h
      | Error e -> failwith ("chaos background swap refused: " ^ e))

let run_one ?instrument ~spec ~plan ~protocol () =
  let universe, participants, ids, bg = build_universe ?instrument ~spec ~protocol () in
  let run_span =
    Span.enter (Universe.spans universe)
      ~attrs:
        [
          ("seed", string_of_int spec.Plan.seed); ("protocol", protocol_name protocol);
        ]
      "run"
  in
  let bg_handles = launch_background ~universe ~spec ~bg in
  let finish ?trace ?(flow = []) exec =
    let bg_settled = List.length (List.filter Driver.settled bg_handles) in
    List.iter (fun h -> ignore (Driver.finish h : Driver.result)) bg_handles;
    (if bg_handles <> [] then
       let m = Universe.metrics universe in
       Metrics.add
         (Metrics.counter m ~labels:[ ("protocol", protocol_name protocol) ] "chaos.load.launched")
         (List.length bg_handles);
       Metrics.add
         (Metrics.counter m ~labels:[ ("protocol", protocol_name protocol) ] "chaos.load.settled")
         bg_settled);
    Span.exit (Universe.spans universe) run_span;
    Universe.snapshot_metrics universe;
    let m = Universe.metrics universe in
    let verdict =
      match exec with
      | Verdict v -> if v.Oracle.pass then "pass" else "violation"
      | Rejected _ -> "rejected"
      | Skipped _ -> "skipped"
    in
    Metrics.incr
      (Metrics.counter m
         ~labels:[ ("protocol", protocol_name protocol); ("verdict", verdict) ]
         "chaos.run");
    Metrics.add
      (Metrics.counter m ~labels:[ ("protocol", protocol_name protocol) ] "chaos.faults_planned")
      (List.length plan);
    {
      protocol;
      spec;
      plan;
      exec;
      flow_violations = flow;
      trace;
      chaos_trace = Some (Universe.trace universe);
      obs = Universe.obs universe;
    }
  in
  let graph = build_graph ~spec ~ids ~timestamp:(Universe.now universe) in
  (* Every verdict is also checked against the static value intervals:
     the settled per-(participant, chain) deltas the oracle observed
     must lie inside lib/flow's budget-1 hull. Any escape is a flow
     soundness bug, which the sweep surfaces like [unexplained]. *)
  let flow_check (v : Oracle.verdict) =
    let module Flow = Ac3_flow.Flow in
    let profile =
      match protocol with P_nolan | P_herlihy -> Flow.Single_leader | P_ac3wn -> Flow.Witness
    in
    let to_settlement = function
      | Ac3_core.Outcome.Missing -> Flow.S_unpublished
      | Ac3_core.Outcome.Published -> Flow.S_published
      | Ac3_core.Outcome.Redeemed -> Flow.S_redeemed
      | Ac3_core.Outcome.Refunded -> Flow.S_refunded
    in
    let analysis = Flow.analyze ~fault_budget:1 ~static_races:true ~profile graph in
    Flow.violations analysis graph (List.map to_settlement v.Oracle.statuses)
  in
  let delta = Universe.max_delta universe in
  let single_leader_config = { (Herlihy.default_config ~delta) with timeout = protocol_timeout } in
  let start_time = Universe.now universe in
  let static_single =
    Oracle.Single_leader
      { delta; timelock_slack = single_leader_config.Herlihy.timelock_slack; start_time }
  in
  match protocol with
  | P_nolan ->
      if Ac2t.classify graph <> Ac2t.Simple_swap then
        finish (Skipped "nolan: not a two-party swap")
      else begin
        Inject.install ~universe ~participants plan;
        match Nolan.execute universe ~config:single_leader_config ~graph ~participants () with
        | Ok result ->
            let v =
              Oracle.check ~universe ~graph ~contracts:result.Herlihy.contracts
                ~static:static_single
            in
            finish ~trace:result.Herlihy.trace ~flow:(flow_check v) (Verdict v)
        | Error msg -> finish (Rejected msg)
      end
  | P_herlihy -> begin
      Inject.install ~universe ~participants plan;
      match Herlihy.execute universe ~config:single_leader_config ~graph ~participants () with
      | Ok result ->
          let v =
            Oracle.check ~universe ~graph ~contracts:result.Herlihy.contracts
              ~static:static_single
          in
          finish ~trace:result.Herlihy.trace ~flow:(flow_check v) (Verdict v)
      | Error msg -> finish (Rejected msg)
    end
  | P_ac3wn ->
      Inject.install ~universe ~participants plan;
      let config =
        {
          (Ac3wn.default_config ~witness_chain:"witness") with
          evidence_depth = 2;
          decision_depth = 3;
          timeout = protocol_timeout;
        }
      in
      match Ac3wn.execute universe ~config ~graph ~participants ~abort_after:250.0 () with
      | Ok result ->
          let v = Oracle.check ~universe ~graph ~contracts:result.Ac3wn.contracts ~static:Witness in
          finish ~trace:result.Ac3wn.trace ~flow:(flow_check v) (Verdict v)
      | Error msg -> finish (Rejected msg)

(* Fingerprint of everything observable about a report. Reports hold
   closures and custom blocks (obs contexts, traces), so the generic
   Marshal fingerprint would degrade to physical-identity hashes; this
   renders the decision-relevant content instead: protocol, plan,
   outcome, and the full metrics registry (whose JSON is emitted in
   sorted key order, hence stable). *)
let report_fingerprint r =
  let exec =
    match r.exec with
    | Verdict v ->
        Printf.sprintf "verdict pass=%b atomic=%b committed=%b lost=%b settled=%b absorbing=%b static=%d"
          v.Oracle.pass v.Oracle.atomic v.Oracle.committed v.Oracle.deposit_lost v.Oracle.settled
          v.Oracle.absorbing
          (List.length v.Oracle.static_errors)
    | Rejected msg -> "rejected " ^ msg
    | Skipped msg -> "skipped " ^ msg
  in
  let flow =
    match r.flow_violations with
    | [] -> "flow-ok"
    | vs -> String.concat ";" (List.map (Fmt.str "%a" Ac3_flow.Flow.pp_violation) vs)
  in
  String.concat "|"
    [
      protocol_name r.protocol; Plan.to_string r.plan; exec; flow;
      Ac3_crypto.Codec.Json.to_string (Metrics.to_json r.obs.Obs.metrics);
    ]

(* Protocols are independent runs over universes rebuilt from the same
   spec, so they parallelize; collection preserves protocol order.
   [sanitize] re-executes sampled runs and compares report fingerprints
   — sound here because every run rebuilds its universe and identities
   from the spec seed alone. *)
let run_all ?(protocols = all_protocols) ?(jobs = 1) ?(sanitize = false) ?instrument ~spec ~plan
    () =
  Pool.map ~jobs ~sanitize ~fingerprint:report_fingerprint
    (fun protocol -> run_one ?instrument ~spec ~plan ~protocol ())
    protocols

(* ------------------------------------------------------------------ *)
(* Sweeps *)

type counts = {
  mutable ran : int;
  mutable passed : int;
  mutable violations : int;
  mutable lost : int;
  mutable non_absorbing : int;
  mutable predicted : int;
  mutable committed : int;
  mutable rejected : int;
  mutable skipped : int;
}

let zero_counts () =
  {
    ran = 0;
    passed = 0;
    violations = 0;
    lost = 0;
    non_absorbing = 0;
    predicted = 0;
    committed = 0;
    rejected = 0;
    skipped = 0;
  }

type failure = { fail_seed : int; fail_protocol : protocol }

type summary = {
  sweep_seed : int;
  sweep_runs : int;
  per_protocol : (protocol * counts) list;
  failures : failure list;
  unexplained_failures : int;
  interval_violations : int;  (** runs whose settled deltas escaped the flow intervals *)
  obs : Obs.t;  (** per-run contexts merged in (run, protocol) order *)
}

let tally c = function
  | Verdict v ->
      c.ran <- c.ran + 1;
      if v.Oracle.pass then c.passed <- c.passed + 1
      else begin
        c.violations <- c.violations + 1;
        (* statically predicted: the verifier already flagged this graph *)
        if not (Oracle.static_ok v) then c.predicted <- c.predicted + 1
      end;
      if v.Oracle.deposit_lost then c.lost <- c.lost + 1;
      if not v.Oracle.absorbing then c.non_absorbing <- c.non_absorbing + 1;
      if v.Oracle.committed then c.committed <- c.committed + 1
  | Rejected _ -> c.rejected <- c.rejected + 1
  | Skipped _ -> c.skipped <- c.skipped + 1

(* Per-run seeds are consecutive so any sweep failure is reproducible in
   isolation as [ac3 chaos --seed <fail_seed> --runs 1].

   With [jobs > 1] the runs execute on an ac3_par domain pool. Each
   task's entire state — universe, identities, fault plan — derives
   from its own run seed, never from pool scheduling, and tallying
   happens afterwards over the order-preserved task results in exactly
   the sequential (run, protocol) order; the summary and every
   [on_report] callback are therefore byte-identical for every [jobs]
   (locked in by test/test_par.ml). *)
let sweep ?(protocols = all_protocols) ?on_report ?(jobs = 1) ?(instrument = true)
    ?(sanitize = false) ?(load = 1) ~seed ~runs () =
  let sweep_task_fingerprint (run_seed, reports) =
    String.concat "\n" (string_of_int run_seed :: List.map report_fingerprint reports)
  in
  let reports_by_run =
    Pool.run ~jobs ~sanitize ~fingerprint:sweep_task_fingerprint
      (List.init runs (fun k () ->
           let run_seed = seed + k in
           let spec, plan = Plan.sample ~load ~seed:run_seed () in
           ( run_seed,
             List.map (fun protocol -> run_one ~instrument ~spec ~plan ~protocol ()) protocols )))
  in
  let per = List.map (fun p -> (p, zero_counts ())) protocols in
  let failures = ref [] in
  let unexplained_failures = ref 0 in
  let interval_violations = ref 0 in
  (* Per-run observability contexts merge in the same sequential (run,
     protocol) order as the tally below, which is what makes the merged
     registry and span forest byte-identical for every [jobs]. *)
  let obs = Obs.create ~enabled:instrument ~clock:(fun () -> 0.0) () in
  List.iter
    (fun (run_seed, reports) ->
      List.iter2
        (fun (_, counts) r ->
          tally counts r.exec;
          if failed r then failures := { fail_seed = run_seed; fail_protocol = r.protocol } :: !failures;
          if unexplained r then incr unexplained_failures;
          if r.flow_violations <> [] then incr interval_violations;
          Metrics.merge_into ~into:obs.Obs.metrics r.obs.Obs.metrics;
          Span.import ~into:obs.Obs.spans r.obs.Obs.spans;
          match on_report with None -> () | Some f -> f r)
        per reports)
    reports_by_run;
  {
    sweep_seed = seed;
    sweep_runs = runs;
    per_protocol = per;
    failures = List.rev !failures;
    unexplained_failures = !unexplained_failures;
    interval_violations = !interval_violations;
    obs;
  }

let pp_counts ppf c =
  Fmt.pf ppf
    "ran=%-3d pass=%-3d viol=%-3d (predicted=%d) lost=%-3d nonabs=%-2d committed=%-3d rejected=%-3d \
     skipped=%d"
    c.ran c.passed c.violations c.predicted c.lost c.non_absorbing c.committed c.rejected c.skipped

let pp_summary ppf s =
  Fmt.pf ppf "@[<v>chaos sweep: seed=%d runs=%d@," s.sweep_seed s.sweep_runs;
  List.iter
    (fun (p, c) -> Fmt.pf ppf "  %-8s %a@," (protocol_name p) pp_counts c)
    s.per_protocol;
  (match s.failures with
  | [] -> Fmt.pf ppf "  no atomicity violations"
  | fs ->
      Fmt.pf ppf "  violations:";
      List.iter (fun f -> Fmt.pf ppf " %s@@%d" (protocol_name f.fail_protocol) f.fail_seed) fs);
  if s.unexplained_failures > 0 then
    Fmt.pf ppf "@,  UNEXPLAINED: %d violation(s) with no fault and a clean static verdict"
      s.unexplained_failures;
  (* Printed only when nonzero so clean sweep output stays byte-stable
     across the introduction of the interval cross-check. *)
  if s.interval_violations > 0 then
    Fmt.pf ppf "@,  INTERVAL: %d run(s) settled outside the static value intervals"
      s.interval_violations;
  Fmt.pf ppf "@]"
