(* The load engine: drive N concurrent AC2Ts through shared chains.

   One run is one universe: every chain, wallet and mempool is shared by
   all in-flight swaps, which is the point — the engine stresses the
   substrate (outpoint contention between sibling wallets, mempool
   pressure, contract-store growth) the way many independent
   single-swap experiments cannot.

   Concurrency comes from the launch/finish protocol split: each
   arrival builds a graph and calls [Herlihy.launch] / [Nolan.launch] /
   [Ac3wn.launch], which schedules the swap's poll loops on the shared
   engine and returns a driver handle. A repeating reaper walks the
   in-flight table in swap-index order and [Driver.finish]es every
   handle that settled or passed its deadline. Nothing reads the wall
   clock or the universe's RNG outside the engine, so a (config, seed)
   pair replays byte-identically — including across [--jobs] in
   {!sweep}, which uses the same task-order observability merge as the
   chaos harness. *)

module Rng = Ac3_sim.Rng
module Stats = Ac3_sim.Stats
module Pool = Ac3_par.Pool
module Obs = Ac3_obs.Obs
module Metrics = Ac3_obs.Metrics
module Span = Ac3_obs.Span
module Keys = Ac3_crypto.Keys
module Json = Ac3_crypto.Codec.Json
module Ac2t = Ac3_contract.Ac2t
module Amount = Ac3_chain.Amount
module Params = Ac3_chain.Params
module Ledger = Ac3_chain.Ledger
module Node = Ac3_chain.Node
module Universe = Ac3_core.Universe
module Participant = Ac3_core.Participant
module Outcome = Ac3_core.Outcome
module Driver = Ac3_core.Driver
module Herlihy = Ac3_core.Herlihy
module Nolan = Ac3_core.Nolan
module Ac3wn = Ac3_core.Ac3wn
module Flow = Ac3_flow.Flow
module Protocol = Ac3_flow.Protocol

let funding = Amount.of_int 50_000_000

type swap_class = Committed | Aborted | Timed_out | Non_atomic | Rejected

let class_name = function
  | Committed -> "committed"
  | Aborted -> "aborted"
  | Timed_out -> "timed_out"
  | Non_atomic -> "non_atomic"
  | Rejected -> "rejected"

type swap_result = {
  spec : Workload.spec;
  cls : swap_class;
  latency : float option; (* launch to settled finish, virtual seconds *)
  phases : (string * float) list; (* phase durations from the swap's trace *)
}

type report = {
  seed : int;
  config : Workload.config;
  launched : int;
  committed : int;
  aborted : int;
  timed_out : int;
  non_atomic : int;
  rejected : int;
  in_flight : int; (* swaps force-finished at the simulation horizon *)
  makespan : float; (* first launch to last finish, virtual seconds *)
  throughput : float; (* finished swaps per virtual second *)
  results : swap_result list; (* swap-index order *)
}

(* --- Phase extraction ---------------------------------------------------- *)

(* The phase windows each protocol's run already folds into the
   universe's spans, as plain durations for the report's percentiles.
   Report order: Herlihy's phases (Nolan's too), then AC3WN's. *)
let phase_names = List.map (fun p -> p.Span.phase) (Driver.edge_phases @ Ac3wn.phases)

let phase_durations protocol trace =
  let phases =
    match Protocol.family protocol with
    | Flow.Single_leader -> Driver.edge_phases
    | Flow.Witness -> Ac3wn.phases
  in
  List.map (fun (name, start, stop) -> (name, stop -. start)) (Span.windows ~phases trace)

(* --- One run ------------------------------------------------------------- *)

type live = {
  live_spec : Workload.spec;
  launched_at : float;
  deadline_at : float;
  handle : Driver.handle;
}

(* Outcome-first classification: a settled abort (refund path ran to
   confirmation) is an abort whether the reaper caught it before or
   after the deadline; only genuinely unfinished swaps time out. A
   settled run that is neither committed nor aborted is an atomicity
   violation and is reported loudly as such. *)
let classify ~by_deadline ~committed ~outcome =
  if committed then Committed
  else if Outcome.aborted outcome then Aborted
  else if by_deadline then Timed_out
  else Non_atomic

let chain_name i = Printf.sprintf "c%d" i

let run_universe ?(instrument = true) ~seed (config : Workload.config) =
  Workload.validate config;
  let u = Universe.create ~seed ~instrument () in
  (* The workload stream is independent of the universe's RNG: specs
     and arrival offsets are sampled up front from their own generator,
     so protocol-internal draws can never shift the offered load. *)
  let wrng = Rng.create (seed lxor 0x6c6f6164) in
  let specs = Workload.sample_specs config wrng in
  let offsets = Workload.arrival_offsets config wrng in
  (* Only AC3WN spends MSS signatures (one graph multisign per
     participant per swap), so size each identity's tree from the
     sampled workload: keygen is exponential in height and dominates
     setup wall-clock, while a flat worst-case height would either
     price Zipf-cold users absurdly or raise [Mss.Key_exhausted] on the
     hot ones mid-run. *)
  let ac3wn_swaps = Array.make config.users 0 in
  Array.iter
    (fun (s : Workload.spec) ->
      if s.Workload.protocol = Workload.Ac3wn then begin
        ac3wn_swaps.(s.Workload.user_a) <- ac3wn_swaps.(s.Workload.user_a) + 1;
        ac3wn_swaps.(s.Workload.user_b) <- ac3wn_swaps.(s.Workload.user_b) + 1
      end)
    specs;
  let height_for n =
    let rec go h = if h >= 16 || 1 lsl h >= n + 8 then h else go (h + 1) in
    go 6
  in
  (* Identities are namespaced by seed and never memoized: parallel
     sweep tasks must not share (or exhaust) MSS signing keys. *)
  let ids =
    Array.init config.users (fun i ->
        Keys.fresh ~height:(height_for ac3wn_swaps.(i)) (Printf.sprintf "load-%d:u%d" seed i))
  in
  let premine = Array.to_list (Array.map (fun id -> (Keys.address id, funding)) ids) in
  let names = List.init config.chains chain_name @ [ "witness" ] in
  List.iter
    (fun name ->
      ignore
        (Universe.add_chain ~nodes:1 u
           (Params.make name ~symbol:(String.uppercase_ascii name)
              ~block_interval:config.block_interval ~block_capacity:100 ~pow_bits:8
              ~confirm_depth:config.confirm_depth ~verify_signatures:false
              ~mempool_capacity:config.mempool_capacity ~premine)))
    names;
  let engine = Universe.engine u in
  let m = Universe.metrics u in
  let launched_c p = Metrics.counter m ~labels:[ ("protocol", p) ] "load.swap.launched" in
  let finished_c p cls =
    Metrics.counter m ~labels:[ ("protocol", p) ] ("load.swap." ^ class_name cls)
  in
  let latency_h p =
    Metrics.histogram m ~labels:[ ("protocol", p) ] ~lo:0.0 ~hi:config.deadline ~buckets:20
      "load.swap.latency"
  in
  let warmup = config.block_interval *. float_of_int (config.confirm_depth + 2) in
  let delta = Universe.max_delta u in
  let active : live option array = Array.make config.swaps None in
  let results : swap_result option array = Array.make config.swaps None in
  let active_count = ref 0 in
  let accounted = ref 0 in
  let launched = ref 0 in
  let first_launch = ref Float.infinity in
  let last_finish = ref 0.0 in
  let on_free = ref (fun () -> ()) in
  let finish_swap idx live ~by_deadline =
    let now = Universe.now u in
    let pname = Protocol.name live.live_spec.Workload.protocol in
    let r = Driver.finish live.handle in
    let cls = classify ~by_deadline ~committed:r.Driver.committed ~outcome:r.Driver.outcome in
    let latency = if by_deadline then None else Some (now -. live.launched_at) in
    Metrics.incr (finished_c pname cls);
    (match latency with Some l -> Metrics.observe (latency_h pname) l | None -> ());
    let phases = phase_durations live.live_spec.Workload.protocol r.Driver.trace in
    results.(idx) <- Some { spec = live.live_spec; cls; latency; phases };
    active.(idx) <- None;
    decr active_count;
    incr accounted;
    last_finish := now;
    !on_free ()
  in
  let launch_spec (spec : Workload.spec) =
    let now = Universe.now u in
    if now < !first_launch then first_launch := now;
    incr launched;
    let ca = chain_name spec.chain_a and cb = chain_name spec.chain_b in
    let swap_chains = [ ca; cb; "witness" ] in
    (* Fresh per-swap participants over shared identities: concurrent
       swaps of one user run sibling wallets whose coin selection is
       serialized by the mempool's spent-outpoint index. *)
    let pa = Participant.create u ~identity:ids.(spec.user_a) ~chains:swap_chains in
    let pb = Participant.create u ~identity:ids.(spec.user_b) ~chains:swap_chains in
    (* Per-swap amounts keep every graph distinct: Herlihy derives the
       swap secret from the graph bytes, so identical graphs would share
       hashlocks across concurrent swaps. *)
    let graph =
      Ac2t.create
        ~edges:
          [
            {
              Ac2t.from_pk = Participant.public pa;
              to_pk = Participant.public pb;
              amount = Amount.of_int (10_000 + spec.index);
              chain = ca;
            };
            {
              Ac2t.from_pk = Participant.public pb;
              to_pk = Participant.public pa;
              amount = Amount.of_int (20_000 + spec.index);
              chain = cb;
            };
          ]
        ~timestamp:now
    in
    let participants = [ pa; pb ] in
    let pname = Protocol.name spec.protocol in
    (* Economic pre-launch screen: O(E) over the swap's graph. A spec
       whose contract economics mint value, strand deposits, or cannot
       refund is rejected before it ever touches a chain. The counter
       is registered lazily so clean workloads (every shipped profile)
       keep a byte-identical metrics registry. *)
    let screened = Flow.screen ~profile:(Protocol.family spec.protocol) graph in
    if screened <> [] then begin
      Metrics.incr (Metrics.counter m ~labels:[ ("protocol", pname) ] "load.swap.screened");
      Metrics.incr (finished_c pname Rejected);
      results.(spec.index) <- Some { spec; cls = Rejected; latency = None; phases = [] };
      incr accounted;
      !on_free ()
    end
    else begin
    Metrics.incr (launched_c pname);
    let launched =
      match spec.protocol with
      | Workload.Nolan | Workload.Herlihy ->
          let hconfig =
            { (Herlihy.default_config ~delta) with poll_interval = config.poll_interval }
          in
          (match spec.protocol with
          | Workload.Nolan -> Nolan.launch u ~config:hconfig ~graph ~participants ()
          | _ -> Herlihy.launch u ~config:hconfig ~graph ~participants ())
          |> Result.map (fun h ->
                 (* An abandoning responder crashes right after agreement:
                    the leader deploys alone and reclaims via the timelock
                    refund path — the paper's Sec 1 crash hazard. *)
                 if spec.abandon then Participant.crash pb;
                 h)
      | Workload.Ac3wn ->
          let wconfig =
            {
              (Ac3wn.default_config ~witness_chain:"witness") with
              decision_depth = config.confirm_depth;
              poll_interval = config.poll_interval;
            }
          in
          (* AC3WN aborts through the witness: an early abort request
             races the deploys to SCw instead of anyone crashing. *)
          let abort_after = if spec.abandon then Some config.block_interval else None in
          Ac3wn.launch u ~config:wconfig ~graph ~participants ?abort_after ()
    in
    match launched with
    | Ok handle ->
        active.(spec.index) <-
          Some
            {
              live_spec = spec;
              launched_at = now;
              deadline_at = now +. config.deadline;
              handle;
            };
        incr active_count
    | Error _ ->
        Metrics.incr (finished_c pname Rejected);
        results.(spec.index) <- Some { spec; cls = Rejected; latency = None; phases = [] };
        incr accounted;
        !on_free ()
    end
  in
  (* Arrivals. *)
  (match config.arrival with
  | Workload.Open_loop _ ->
      Array.iteri
        (fun i spec ->
          ignore
            (Ac3_sim.Engine.schedule_at engine ~time:(warmup +. offsets.(i)) (fun () ->
                 launch_spec spec)))
        specs
  | Workload.Closed_loop { clients; think } ->
      let next = ref 0 in
      let launch_next () =
        if !next < config.swaps then begin
          let spec = specs.(!next) in
          incr next;
          launch_spec spec
        end
      in
      (* Each finish frees one client slot; think time separates its
         next launch. Initial launches are staggered so same-time event
         ordering never depends on insertion subtleties. *)
      on_free :=
        (fun () ->
          if !next < config.swaps then
            ignore (Ac3_sim.Engine.schedule engine ~delay:think launch_next));
      let initial = min clients config.swaps in
      for i = 0 to initial - 1 do
        ignore
          (Ac3_sim.Engine.schedule_at engine
             ~time:(warmup +. (0.001 *. float_of_int i))
             (fun () -> launch_next ()))
      done);
  (* The reaper: finish settled and deadline-expired swaps, in
     swap-index order for determinism. *)
  let reap () =
    let now = Universe.now u in
    Array.iteri
      (fun i slot ->
        match slot with
        | None -> ()
        | Some live ->
            if Driver.settled live.handle then finish_swap i live ~by_deadline:false
            else if now >= live.deadline_at then finish_swap i live ~by_deadline:true)
      active
  in
  let _stop : unit -> unit =
    Ac3_sim.Engine.schedule_repeating engine
      ~while_:(fun () -> !accounted < config.swaps)
      ~first:(warmup +. config.poll_interval) ~every:config.poll_interval reap
  in
  let completed =
    Universe.run_while u ~timeout:500_000.0 (fun () -> !accounted >= config.swaps)
  in
  (* Horizon hit with swaps still in flight (pathological configs
     only): force-finish them so their observability is folded in, and
     report them as in-flight rather than hiding them in a tally. *)
  let in_flight = if completed then 0 else !active_count in
  if not completed then
    Array.iteri
      (fun i slot -> match slot with Some live -> finish_swap i live ~by_deadline:true | None -> ())
      active;
  Universe.snapshot_metrics u;
  let tally cls =
    Array.fold_left
      (fun acc r -> match r with Some r when r.cls = cls -> acc + 1 | _ -> acc)
      0 results
  in
  let makespan =
    if Float.is_finite !first_launch && !last_finish > !first_launch then
      !last_finish -. !first_launch
    else 0.0
  in
  let finished = !accounted - tally Rejected in
  let throughput = if makespan > 0.0 then float_of_int finished /. makespan else 0.0 in
  let report =
    {
      seed;
      config;
      launched = !launched;
      committed = tally Committed;
      aborted = tally Aborted;
      timed_out = tally Timed_out;
      non_atomic = tally Non_atomic;
      rejected = tally Rejected;
      in_flight;
      makespan;
      throughput;
      results = List.filter_map Fun.id (Array.to_list results);
    }
  in
  (report, u)

let run ?instrument ~seed config =
  let report, u = run_universe ?instrument ~seed config in
  (report, Obs.detach (Universe.obs u))

(* --- Conservation -------------------------------------------------------- *)

(* Value conservation per chain: however many swaps ran, the UTXO set
   must hold exactly the premine plus one block reward per mined block
   (fees recirculate through coinbases). Swaps move value; they must
   never create or destroy it. *)
let supply_check u =
  List.map
    (fun (name, chain) ->
      let node = Universe.gateway u name in
      let premine_total =
        List.fold_left
          (fun acc (_, a) -> Amount.(acc + a))
          Amount.zero chain.Universe.params.Params.premine
      in
      let expected =
        Amount.(
          premine_total
          + scale chain.Universe.params.Params.block_reward (Node.tip_height node))
      in
      (name, expected, Ledger.total_supply (Node.ledger node)))
    (Universe.chains u)

(* --- Rendering ----------------------------------------------------------- *)

let latencies_of report =
  List.filter_map (fun r -> r.latency) report.results

let latencies_by_protocol report p =
  List.filter_map
    (fun r -> if r.spec.Workload.protocol = p then r.latency else None)
    report.results

let phase_samples report name =
  List.concat_map
    (fun r -> List.filter_map (fun (n, d) -> if String.equal n name then Some d else None) r.phases)
    report.results

let bpf b fmt = Printf.bprintf b fmt

let render_latency_line b label xs =
  match xs with
  | [] -> bpf b "  %-22s n=0\n" label
  | _ ->
      bpf b "  %-22s n=%-5d p50=%7.2fs  p95=%7.2fs  p99=%7.2fs  max=%7.2fs\n" label
        (List.length xs) (Stats.percentile xs 50.0) (Stats.percentile xs 95.0)
        (Stats.percentile xs 99.0) (Stats.maximum xs)

let render report =
  let b = Buffer.create 1024 in
  let c = report.config in
  bpf b "ac3 load: seed=%d swaps=%d users=%d chains=%d arrival=%s zipf=%.2f abandon=%.2f\n"
    report.seed c.Workload.swaps c.Workload.users c.Workload.chains
    (Fmt.str "%a" Workload.pp_arrival c.Workload.arrival)
    c.Workload.zipf_exponent c.Workload.abandon_frac;
  bpf b "  mix: nolan=%.2f herlihy=%.2f ac3wn=%.2f  deadline=%.0fs  block=%.1fs depth=%d\n"
    c.Workload.mix.Workload.nolan c.Workload.mix.Workload.herlihy c.Workload.mix.Workload.ac3wn
    c.Workload.deadline c.Workload.block_interval c.Workload.confirm_depth;
  bpf b "  launched=%d committed=%d aborted=%d timed_out=%d non_atomic=%d rejected=%d in_flight=%d\n"
    report.launched report.committed report.aborted report.timed_out report.non_atomic
    report.rejected report.in_flight;
  bpf b "  makespan=%.1fs  throughput=%.3f swaps/s (virtual)\n" report.makespan report.throughput;
  render_latency_line b "latency all" (latencies_of report);
  List.iter
    (fun p ->
      render_latency_line b
        ("latency " ^ Protocol.name p)
        (latencies_by_protocol report p))
    Protocol.all;
  List.iter
    (fun name ->
      match phase_samples report name with
      | [] -> ()
      | xs -> render_latency_line b ("phase " ^ name) xs)
    phase_names;
  if report.non_atomic > 0 then bpf b "  ATOMICITY VIOLATION: %d swap(s) settled mixed\n" report.non_atomic;
  Buffer.contents b

(* --- Sweeps -------------------------------------------------------------- *)

type sweep_summary = {
  sweep_seed : int;
  sweep_runs : int;
  reports : report list; (* run order: seeds seed, seed+1, ... *)
  obs : Obs.t;
}

(* What must be byte-identical across [--jobs]: the rendered report and
   the merged metrics registry. Handles and traces hide closures and
   fresh refs, so the default structural fingerprint would diverge. *)
let run_fingerprint (report, obs) =
  render report ^ "\n" ^ Json.to_string (Metrics.to_json obs.Obs.metrics)

(* Per-run seeds are consecutive so any sweep result reproduces in
   isolation as [ac3 load --seed <run_seed> --runs 1]. The pool's
   ordered fold merges each run's observability context in run order as
   soon as every earlier run has merged, which is what makes the sweep
   byte-identical for every [jobs] (the chaos harness discipline); only
   the small reports are kept. *)
let sweep ?(jobs = 1) ?(sanitize = false) ?(instrument = true) ~seed ~runs config =
  if runs < 1 then invalid_arg "Engine.sweep: runs must be >= 1";
  let obs = Obs.create ~enabled:instrument ~clock:(fun () -> 0.0) () in
  let merge reports (report, run_obs) =
    Metrics.merge_into ~into:obs.Obs.metrics run_obs.Obs.metrics;
    Span.import ~into:obs.Obs.spans run_obs.Obs.spans;
    report :: reports
  in
  let reports =
    Pool.fold ~jobs ~sanitize ~fingerprint:run_fingerprint ~init:[] ~merge
      (List.init runs (fun k () -> run ~instrument ~seed:(seed + k) config))
  in
  { sweep_seed = seed; sweep_runs = runs; reports = List.rev reports; obs }

let render_sweep s =
  let b = Buffer.create 1024 in
  List.iter (fun r -> Buffer.add_string b (render r)) s.reports;
  if s.sweep_runs > 1 then begin
    let total f = List.fold_left (fun acc r -> acc + f r) 0 s.reports in
    bpf b "sweep: seed=%d runs=%d launched=%d committed=%d aborted=%d timed_out=%d non_atomic=%d\n"
      s.sweep_seed s.sweep_runs (total (fun r -> r.launched)) (total (fun r -> r.committed))
      (total (fun r -> r.aborted)) (total (fun r -> r.timed_out))
      (total (fun r -> r.non_atomic))
  end;
  Buffer.contents b
