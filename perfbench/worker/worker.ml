(* One repetition of one benchmark workload, in a fresh process.

     worker.exe WORKLOAD --seed N --block B --mode MODE [--reps R] [--spans FILE]

   WORKLOAD is load-contended, chaos-faults or check-ring; the seed and
   block number pick the input (check-ring has one input). MODE is
     plain   the untraced call that the end-to-end metrics time;
     traced  spans around each call into a layer, then layer probes;
     setup   stop at the first timed call (set-up time only).

   Prints one JSON object per repetition on stdout. Everything is
   measured from outside the library: spans wrap calls into public
   functions, counts come from public outputs (metrics registries,
   reports, Engine.executed_events, Pool.stats, Gc.quick_stat), and
   probes replay the workload's own inputs through lower layers. [--reps]
   above 1 exists only for the cold-start self-test: every repetition
   after the first runs in a warm process and says so. *)

module Json = Ac3_crypto.Codec.Json
module Sha256 = Ac3_crypto.Sha256
module Keys = Ac3_crypto.Keys
module Rng = Ac3_sim.Rng
module Engine = Ac3_sim.Engine
module Metrics = Ac3_obs.Metrics
module Obs = Ac3_obs.Obs
module Pool = Ac3_par.Pool
module Workload = Ac3_load.Workload
module Load = Ac3_load.Engine
module Runner = Ac3_chaos.Runner
module Plan = Ac3_chaos.Plan
module Oracle = Ac3_chaos.Oracle
module MC = Ac3_model.Checker
module Universe = Ac3_core.Universe
module Scenarios = Ac3_core.Scenarios
module Flow = Ac3_flow.Flow
module Ac2t = Ac3_contract.Ac2t
module Evidence = Ac3_contract.Evidence
module Registry = Ac3_contract.Registry
module Block = Ac3_chain.Block
module Store = Ac3_chain.Store
module Ledger = Ac3_chain.Ledger
module Node = Ac3_chain.Node
module Params = Ac3_chain.Params
module Tx = Ac3_chain.Tx
module Amount = Ac3_chain.Amount

let now = Unix.gettimeofday

(* --- Spans ----------------------------------------------------------------- *)

(* Spans live in memory and are written out when the repetition ends.
   Pool tasks record into their own recorder (one per task, so no
   domain ever touches another's list); ids come from one atomic
   counter, so they stay unique across domains. *)

type span = { id : int; name : string; parent : int; start : float; stop : float; domain : int }

type recorder = { mutable recorded : span list; mutable current : int }

let span_ids = Atomic.make 0

let main_recorder = { recorded = []; current = 0 }

let with_span ?(r = main_recorder) name f =
  let id = 1 + Atomic.fetch_and_add span_ids 1 in
  let parent = r.current in
  r.current <- id;
  let start = now () in
  let close () =
    r.current <- parent;
    r.recorded <-
      { id; name; parent; start; stop = now (); domain = (Domain.self () :> int) } :: r.recorded
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let spans_named name =
  List.filter (fun s -> String.equal s.name name) main_recorder.recorded

let total_s name = List.fold_left (fun acc s -> acc +. (s.stop -. s.start)) 0.0 (spans_named name)

let durations name = List.rev_map (fun s -> s.stop -. s.start) (spans_named name)

(* 0, not Stats.mean's nan, for an empty sample: JSON has no nan. *)
let mean = function [] -> 0.0 | xs -> Ac3_sim.Stats.mean xs

(* Self time: the span's duration minus the union of its children's
   intervals (children on pool domains may overlap each other). *)
let self_time all s =
  let children =
    List.filter (fun c -> c.parent = s.id) all
    |> List.map (fun c -> (Float.max c.start s.start, Float.min c.stop s.stop))
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, s.start) children
  in
  s.stop -. s.start -. covered

let write_spans ~path ~run_id =
  let all = List.rev main_recorder.recorded in
  let origin = List.fold_left (fun acc s -> Float.min acc s.start) Float.infinity all in
  let json =
    Json.List
      (List.map
         (fun s ->
           Json.Obj
             [
               ("run", Json.String run_id);
               ("id", Json.Int s.id);
               ("parent", Json.Int s.parent);
               ("name", Json.String s.name);
               ("domain", Json.Int s.domain);
               ("start_s", Json.Float (s.start -. origin));
               ("end_s", Json.Float (s.stop -. origin));
               ("self_s", Json.Float (self_time all s));
             ])
         all)
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string_pretty json))

(* --- Runtime counters ------------------------------------------------------ *)

(* Gc.quick_stat deltas around each top-level call (calling domain). *)
let gc_alloc_words = ref 0.0

let gc_major = ref 0

let gc_top_heap_words = ref 0

let with_gc f =
  let a = Gc.quick_stat () in
  let v = f () in
  let b = Gc.quick_stat () in
  let alloc (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  gc_alloc_words := !gc_alloc_words +. (alloc b -. alloc a);
  gc_major := !gc_major + (b.major_collections - a.major_collections);
  gc_top_heap_words := max !gc_top_heap_words b.top_heap_words;
  v

let words_mb w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
            | kb -> float_of_int kb /. 1024.0
            | exception _ -> scan ())
      in
      let v = scan () in
      close_in ic;
      v

(* Counter totals by name, summed over labels, from a registry snapshot. *)
let counter_totals metrics =
  let totals = Hashtbl.create 64 in
  (match Metrics.to_json metrics with
  | Json.Obj kvs ->
      List.iter
        (fun (key, v) ->
          match (Json.member_opt "type" v, Json.member_opt "value" v) with
          | Some (Json.String "counter"), Some (Json.Int n) ->
              let name = match String.index_opt key '{' with Some i -> String.sub key 0 i | None -> key in
              Hashtbl.replace totals name (n + Option.value ~default:0 (Hashtbl.find_opt totals name))
          | _ -> ())
        kvs
  | _ -> ());
  fun name -> Option.value ~default:0 (Hashtbl.find_opt totals name)

(* --- Results --------------------------------------------------------------- *)

(* What one repetition reports. [layers] stays empty in plain mode. *)
type outcome = {
  ops : int;  (** swaps launched / fault plans swept / product states explored *)
  attempted : int;  (** correctness operations: swaps / (plan, protocol) runs / protocol checks *)
  failed : int;
  errors : string list;
  digest : string;
  verdicts : string list;
  layers : (string * float) list;
}

let int_f n = float_of_int n

(* --- Layer probes ---------------------------------------------------------- *)

(* Blocks of every chain's active branch at the gateway node. *)
let active_blocks store =
  List.filter_map (Store.block_at_height store) (List.init (Store.tip_height store) (fun h -> h + 1))

let harvest_txids u =
  List.concat_map
    (fun (name, _) ->
      active_blocks (Node.store (Universe.gateway u name))
      |> List.concat_map (fun (b : Block.t) -> List.map Tx.txid b.Block.txs))
    (Universe.chains u)

let fail_probe fmt = Printf.ksprintf failwith fmt

(* MSS height of an unused identity: it holds 2^height signatures. *)
let key_height id =
  let rec log2 n h = if n <= 1 then h else log2 (n lsr 1) (h + 1) in
  log2 (Keys.remaining_signatures id) 0

(* sim: schedule and run [n] no-op events on a fresh engine. *)
let probe_dispatch n =
  let engine = Engine.create () in
  let t0 = now () in
  for i = 1 to n do
    ignore (Engine.schedule engine ~delay:(float_of_int (i mod 997)) (fun () -> ()))
  done;
  let ran = Engine.run engine in
  let dt = now () -. t0 in
  if ran <> n then fail_probe "dispatch probe ran %d of %d events" ran n;
  dt *. 1e9 /. float_of_int n

(* crypto: keygen on unused labels at the workload's heights (caches
   cold: a new label misses the key-material cache), then sign and verify
   distinct messages with the first probe key (the verdict memo misses). *)
let probe_crypto ~seed ~heights ~messages =
  let keys =
    List.mapi
      (fun i h ->
        with_span "probe.crypto.keygen" (fun () ->
            Keys.fresh ~height:h (Printf.sprintf "perfbench-probe-%d:%d" seed i)))
      heights
  in
  let keygen_ms = mean (durations "probe.crypto.keygen") *. 1e3 in
  let key = List.hd keys in
  let messages = List.filteri (fun i _ -> i < Keys.remaining_signatures key) messages in
  let signed =
    List.map
      (fun m -> (m, with_span "probe.crypto.sign" (fun () -> Keys.sign key m)))
      messages
  in
  List.iter
    (fun (m, s) ->
      if not (with_span "probe.crypto.verify" (fun () -> Keys.verify (Keys.public key) m s)) then
        fail_probe "verify probe rejected its own signature")
    signed;
  let mib = String.init 1048576 (fun i -> Char.chr (i land 0xff)) in
  let rounds = 16 in
  let t0 = now () in
  for _ = 1 to rounds do
    ignore (Sha256.digest mib)
  done;
  let sha_s = now () -. t0 in
  [
    ("crypto.keygen_ms", keygen_ms);
    ("crypto.sign_us", mean (durations "probe.crypto.sign") *. 1e6);
    ("crypto.verify_us", mean (durations "probe.crypto.verify") *. 1e6);
    ("crypto.sha256_mbps", float_of_int rounds /. sha_s);
  ]

(* chain: re-mine harvested blocks at their own target (the nonce search
   is deterministic, so the hash must come out identical), and replay
   every chain's active branch into a fresh store, whose ledger must end
   in the source store's state digest. *)
let probe_chain u =
  let stores = List.map (fun (name, _) -> Node.store (Universe.gateway u name)) (Universe.chains u) in
  let to_mine = List.filteri (fun i _ -> i < 32) (List.concat_map active_blocks stores) in
  List.iter
    (fun (b : Block.t) ->
      let h = b.Block.header in
      let mined =
        with_span "probe.chain.mine" (fun () ->
            Block.mine ~chain:h.Block.chain ~height:h.Block.height ~parent:h.Block.parent
              ~time:h.Block.time ~target:h.Block.target ~txs:b.Block.txs)
      in
      if Block.hash mined <> Block.hash b then fail_probe "re-mined block differs from its source")
    to_mine;
  List.iter
    (fun src ->
      let fresh = Store.create ~params:(Store.params src) ~registry:(Registry.standard ()) in
      List.iter
        (fun b ->
          match with_span "probe.chain.add_block" (fun () -> Store.add_block fresh b) with
          | Store.Added _ -> ()
          | _ -> fail_probe "replayed block was not added")
        (active_blocks src);
      if Ledger.state_digest (Store.ledger fresh) <> Ledger.state_digest (Store.ledger src) then
        fail_probe "replayed store's ledger digest differs from the source")
    stores;
  [
    ("chain.mine_us", mean (durations "probe.chain.mine") *. 1e6);
    ("chain.add_block_us", mean (durations "probe.chain.add_block") *. 1e6);
  ]

(* contract: evidence bundles for buried witness-chain transactions,
   checkpointed at the parent of their block. *)
let probe_evidence u =
  let store = Node.store (Universe.gateway u "witness") in
  let depth = (Store.params store).Params.confirm_depth in
  let candidates =
    List.concat_map
      (fun (b : Block.t) ->
        let h = b.Block.header.Block.height in
        if h < 1 || h + depth > Store.tip_height store then []
        else
          match Store.block_at_height store (h - 1) with
          | None -> []
          | Some parent ->
              let txs = List.filter (fun t -> not (Tx.is_coinbase t)) b.Block.txs in
              let txs = if txs = [] then b.Block.txs else txs in
              List.map (fun t -> (parent.Block.header, Tx.txid t)) txs)
      (active_blocks store)
  in
  List.iter
    (fun (checkpoint, txid) ->
      match Evidence.build ~store ~checkpoint ~txid with
      | Error e -> fail_probe "evidence build failed: %s" e
      | Ok ev -> (
          match with_span "probe.contract.evidence_verify" (fun () -> Evidence.verify ~checkpoint ~depth ev) with
          | Ok tx when Tx.txid tx = txid -> ()
          | _ -> fail_probe "evidence did not verify"))
    (List.filteri (fun i _ -> i < 64) candidates);
  [ ("contract.evidence_verify_us", mean (durations "probe.contract.evidence_verify") *. 1e6) ]

let profile_of_chaos = function
  | Runner.P_nolan | Runner.P_herlihy -> Flow.Single_leader
  | Runner.P_ac3wn -> Flow.Witness

let probe_flow ?r ~profile graph =
  ignore (with_span ?r "probe.flow.analyze" (fun () -> Flow.analyze ~fault_budget:1 ~profile graph));
  with_span ?r "probe.flow.screen" (fun () -> Flow.screen ~profile graph)

(* The probes every workload runs, fed from [u]'s chains, plus the flow
   probes the workload already ran on its own graphs. *)
let common_probes ~seed ~u ~events ~heights =
  let messages = List.sort_uniq compare (harvest_txids u) |> List.filteri (fun i _ -> i < 64) in
  [
    ("sim.dispatch_ns", probe_dispatch (max 100_000 (min 2_000_000 events)));
    ("flow.analyze_us", mean (durations "probe.flow.analyze") *. 1e6);
    ("flow.screen_us", mean (durations "probe.flow.screen") *. 1e6);
  ]
  @ probe_crypto ~seed ~heights ~messages
  @ probe_chain u @ probe_evidence u

let registry_layers count =
  [
    ("chain.blocks", int_f (count "chain.block.mined"));
    ("chain.txs", int_f (count "chain.tx.mined"));
    ("chain.tx_rejected", int_f (count "chain.tx.rejected"));
    ("chain.mempool_evicted", int_f (count "chain.mempool.evicted_overflow"));
    ("chain.reorgs", int_f (count "chain.reorgs"));
    ("chain.net_sent", int_f (count "chain.net.sent"));
    ("contract.evidence_built", int_f (count "core.evidence.built"));
    ("core.deploys", int_f (count "core.deploy.submitted"));
    ("core.redeems", int_f (count "core.redeem.submitted"));
    ("core.refunds", int_f (count "core.refund.submitted"));
  ]

let gc_layers () =
  [
    ("gc.alloc_mb", words_mb !gc_alloc_words);
    ("gc.major_collections", int_f !gc_major);
    ("gc.top_heap_mb", words_mb (int_f !gc_top_heap_words));
  ]

(* Worker domains. On a shared 2-core host a two-domain chaos sweep of
   one input varied by about 18% between back-to-back runs, a
   one-domain sweep by about 5%, so every workload runs on one domain
   and par is unmeasured. *)
let jobs = 1

(* --- load-contended -------------------------------------------------------- *)

(* The E15 shape: one universe, Poisson arrivals at 8 swaps per virtual
   second, 12 Zipf(1.1) users, 3 asset chains plus the witness chain,
   the default 0.5/0.3/0.2 mix, abandon 0.15, deadline 200, and 4000
   swaps per input. The other fields are the `ac3 load` defaults. *)
let load_config =
  {
    Workload.default with
    Workload.swaps = 4000;
    users = 12;
    chains = 3;
    arrival = Workload.Open_loop { rate = 8.0 };
    mix = { Workload.nolan = 0.5; herlihy = 0.3; ac3wn = 0.2 };
    zipf_exponent = 1.1;
    abandon_frac = 0.15;
    deadline = 200.0;
    block_interval = 4.0;
    confirm_depth = 2;
    mempool_capacity = 512;
  }

(* Chains of [u] whose supply_check does not balance. *)
let unbalanced_chains u =
  List.filter_map
    (fun (chain, expected, actual) ->
      if Amount.equal expected actual then None
      else Some (Printf.sprintf "supply of %s does not balance" chain))
    (Load.supply_check u)

(* Failed operations of a load report: AC3WN swaps that settled mixed
   and swaps still in flight, or every swap when a chain's supply does
   not balance. Nolan/Herlihy non-atomic settlements are the baselines'
   normal behaviour, not failures. *)
let load_failures (report : Load.report) ~unbalanced =
  let ac3wn_mixed =
    List.length
      (List.filter
         (fun (r : Load.swap_result) ->
           r.Load.spec.Workload.protocol = Workload.Ac3wn && r.Load.cls = Load.Non_atomic)
         report.Load.results)
  in
  let errors =
    (if ac3wn_mixed > 0 then [ Printf.sprintf "%d AC3WN swap(s) settled non-atomically" ac3wn_mixed ]
     else [])
    @
    (if report.Load.in_flight > 0 then [ Printf.sprintf "%d swap(s) still in flight" report.Load.in_flight ]
     else [])
    @ unbalanced
  in
  let failed =
    if unbalanced <> [] then List.length report.Load.results else ac3wn_mixed + report.Load.in_flight
  in
  (failed, errors)

(* Identity heights exactly as Load.run_universe sizes them: enough MSS
   signatures for each user's sampled AC3WN swaps. *)
let load_heights config specs =
  let ac3wn_swaps = Array.make config.Workload.users 0 in
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
  Array.to_list (Array.map height_for ac3wn_swaps)

(* Input [block] of a seed is the universe seeded 1000 * seed + block,
   which `ac3 load --seed` reproduces with the options above. *)
let load_seed ~seed ~block = (1000 * seed) + block

(* The timed call is Load.run_universe, which is all Load.sweep ~jobs:1
   ~runs:1 does apart from an observability merge; it hands back the
   universe, whose supply is checked after the timed window. *)
let load_plain ~seed ~block ~first_call =
  let seed = load_seed ~seed ~block in
  first_call ();
  let t0 = now () in
  let report, u = Load.run_universe ~seed load_config in
  let wall = now () -. t0 in
  let failed, errors = load_failures report ~unbalanced:(unbalanced_chains u) in
  ( wall,
    {
      ops = report.Load.launched;
      attempted = List.length report.Load.results;
      failed;
      errors;
      digest = Sha256.hexdigest (Load.render report);
      verdicts = [];
      layers = [];
    } )

let load_traced ~seed ~block ~first_call =
  let seed = load_seed ~seed ~block in
  let config = load_config in
  first_call ();
  let t0 = now () in
  let specs, offsets =
    with_span "load.sample" (fun () ->
        with_gc (fun () ->
            (* Load.run_universe's own workload stream. *)
            let rng = Rng.create (seed lxor 0x6c6f6164) in
            let specs = Workload.sample_specs config rng in
            (specs, Workload.arrival_offsets config rng)))
  in
  let report, u =
    with_span "load.run_universe" (fun () -> with_gc (fun () -> Load.run_universe ~seed config))
  in
  let unbalanced, rendered =
    with_span "load.check" (fun () -> with_gc (fun () -> (unbalanced_chains u, Load.render report)))
  in
  let wall = now () -. t0 in
  let failed, errors = load_failures report ~unbalanced in
  let sampled = List.map (fun (r : Load.swap_result) -> r.Load.spec) report.Load.results in
  if sampled <> Array.to_list specs || Array.length offsets <> Array.length specs then
    fail_probe "sample probe drifted from the run's specs";
  (* The identities at the sized heights must be the ones the universe
     premined (the key-material cache makes rebuilding them cheap). *)
  let heights = load_heights config specs in
  let premined = List.map fst (Universe.params u "witness").Params.premine in
  let ids =
    Array.of_list
      (List.mapi (fun i h -> Keys.fresh ~height:h (Printf.sprintf "load-%d:u%d" seed i)) heights)
  in
  Array.iteri
    (fun i id ->
      if not (List.mem (Keys.address id) premined) then
        fail_probe "identity probe u%d drifted from the run" i)
    ids;
  (* Flow: rebuild the first launches' graphs as the engine does. *)
  let warmup = config.Workload.block_interval *. float_of_int (config.Workload.confirm_depth + 2) in
  List.iter
      (fun (r : Load.swap_result) ->
        let s = r.Load.spec in
        let i = s.Workload.index in
        let chain k = Printf.sprintf "c%d" k in
        let graph =
          Ac2t.create
            ~edges:
              [
                {
                  Ac2t.from_pk = Keys.public ids.(s.Workload.user_a);
                  to_pk = Keys.public ids.(s.Workload.user_b);
                  amount = Amount.of_int (10_000 + i);
                  chain = chain s.Workload.chain_a;
                };
                {
                  Ac2t.from_pk = Keys.public ids.(s.Workload.user_b);
                  to_pk = Keys.public ids.(s.Workload.user_a);
                  amount = Amount.of_int (20_000 + i);
                  chain = chain s.Workload.chain_b;
                };
              ]
            ~timestamp:(warmup +. offsets.(i))
        in
        let profile =
          match s.Workload.protocol with
          | Workload.Nolan | Workload.Herlihy -> Flow.Single_leader
          | Workload.Ac3wn -> Flow.Witness
        in
        if probe_flow ~profile graph <> [] && r.Load.cls <> Load.Rejected then
          fail_probe "flow probe rejects launched swap %d" i)
      (List.filteri (fun i _ -> i < 64) report.Load.results);
  let events = Engine.executed_events (Universe.engine u) in
  let probes = common_probes ~seed ~u ~events ~heights in
  let count = counter_totals (Universe.metrics u) in
  let layers =
    [
      ("sim.events", int_f events);
      ("crypto.identities", int_f config.Workload.users);
      ("load.sample_ms", total_s "load.sample" *. 1e3);
      ("load.run_s", total_s "load.run_universe");
      ("load.check_ms", total_s "load.check" *. 1e3);
      ("load.committed", int_f report.Load.committed);
      ("load.aborted", int_f report.Load.aborted);
      ("load.timed_out", int_f report.Load.timed_out);
      ("load.non_atomic", int_f report.Load.non_atomic);
    ]
    @ probes @ registry_layers count @ gc_layers ()
  in
  ( wall,
    {
      ops = report.Load.launched;
      attempted = List.length report.Load.results;
      failed;
      errors;
      digest = Sha256.hexdigest rendered;
      verdicts = [];
      layers;
    } )

(* --- chaos-faults ---------------------------------------------------------- *)

let verdict_line (r : Runner.report) =
  let exec =
    match r.Runner.exec with
    | Runner.Verdict v ->
        Printf.sprintf "pass=%b atomic=%b committed=%b lost=%b" v.Oracle.pass v.Oracle.atomic
          v.Oracle.committed v.Oracle.deposit_lost
    | Runner.Rejected _ -> "rejected"
    | Runner.Skipped _ -> "skipped"
  in
  Printf.sprintf "%d/%s/%s/%s" r.Runner.spec.Plan.seed
    (Runner.protocol_name r.Runner.protocol)
    exec
    (if r.Runner.flow_violations = [] then "flow-ok" else "flow-escaped")

(* A (plan, protocol) run fails the benchmark when AC3WN violates
   atomicity, or when the harness itself is wrong (an unexplained
   violation, or a settlement outside the static flow intervals). *)
let chaos_run_failed (r : Runner.report) =
  (r.Runner.protocol = Runner.P_ac3wn && Runner.failed r)
  || Runner.unexplained r || r.Runner.flow_violations <> []

(* Fault plans per chaos-faults input. *)
let chaos_plans = 12

(* Parties in the [n] plans Plan.sample draws from seeds [base] onwards. *)
let plan_parties ~base n =
  List.fold_left
    (fun acc k -> acc + (fst (Plan.sample ~seed:(base + k) ())).Plan.parties)
    0 (List.init n Fun.id)

(* Input [block] of a seed is [chaos_plans] consecutive fault plans, as
   Runner.sweep runs them. A run's cost grows with its party count, so a
   seed's candidate blocks are drawn in order and the [block]-th one
   whose party total is the mean of Plan.sample's shape mix (taken over
   a fixed reference sample of seeds) times [chaos_plans], give or take
   one, is taken: every input then sweeps about the same amount of work
   through different shapes and faults. *)
let chaos_base ~seed ~block =
  let reference = 4096 in
  let target =
    int_of_float
      (Float.round
         (float_of_int (plan_parties ~base:0 reference)
         *. float_of_int chaos_plans /. float_of_int reference))
  in
  let candidates = 10_000 in
  let rec pick index found =
    if index = candidates then
      failwith
        (Printf.sprintf "chaos_base: fewer than %d of the first %d blocks hold %d +- 1 parties"
           (block + 1) candidates target);
    let base = Pool.split_seed ~root:seed ~index mod 1_000_000_000 in
    if abs (plan_parties ~base chaos_plans - target) > 1 then pick (index + 1) found
    else if found = block then base
    else pick (index + 1) (found + 1)
  in
  pick 0 0

let chaos_plain ~seed ~block ~first_call =
  let base = chaos_base ~seed ~block in
  let reports = ref [] in
  first_call ();
  let t0 = now () in
  let summary =
    Runner.sweep ~jobs ~on_report:(fun r -> reports := r :: !reports) ~seed:base ~runs:chaos_plans ()
  in
  let wall = now () -. t0 in
  let reports = List.rev !reports in
  let ac3wn_violations =
    match List.assoc_opt Runner.P_ac3wn summary.Runner.per_protocol with
    | Some c -> c.Runner.violations
    | None -> 0
  in
  let errors =
    List.filter_map
      (fun (n, what) -> if n > 0 then Some (Printf.sprintf "%d %s" n what) else None)
      [
        (summary.Runner.unexplained_failures, "unexplained violation(s)");
        (summary.Runner.interval_violations, "run(s) outside the static flow intervals");
        (ac3wn_violations, "AC3WN violation(s)");
      ]
  in
  ( wall,
    {
      ops = chaos_plans;
      attempted = List.length reports;
      failed = List.length (List.filter chaos_run_failed reports);
      errors;
      digest = Sha256.hexdigest (Fmt.str "%a" Runner.pp_summary summary);
      verdicts = List.map verdict_line reports;
      layers = [];
    } )

(* What one traced chaos task hands back to the coordinator. *)
type chaos_task = {
  task_domain : int;
  task_s : float;
  task_spans : span list;
  task_reports : Runner.report list;
  heights : int list;  (** one per identity the task's universes created *)
  events : int;
  probe_universe : Universe.t option;
}

(* The traced loop: the sweep's own work, one Pool task per plan,
   with spans around Plan.sample, Runner.build_universe (which pays the
   run's keygen: identities come out of the key-material cache for the
   run_one that follows) and Runner.run_one. *)
let chaos_traced ~seed ~block ~first_call =
  let base = chaos_base ~seed ~block in
  first_call ();
  let _, tasks_before = Pool.stats () in
  let t0 = now () in
  let tasks =
    with_span "chaos.loop" (fun () ->
        let loop_id = main_recorder.current in
        with_gc (fun () ->
            Pool.run ~jobs
              (List.init chaos_plans (fun k () ->
                   let r = { recorded = []; current = loop_id } in
                   let start = now () in
                   let spec, plan =
                     with_span ~r "chaos.plan_sample" (fun () -> Plan.sample ~seed:(base + k) ())
                   in
                   let per_protocol =
                     List.map
                       (fun protocol ->
                         let u, _, ids, _ =
                           with_span ~r "core.build_universe" (fun () ->
                               Runner.build_universe ~spec ~protocol ())
                         in
                         let report =
                           with_span ~r ("core.run_one." ^ Runner.protocol_name protocol) (fun () ->
                               Runner.run_one ~spec ~plan ~protocol ())
                         in
                         let graph = Runner.build_graph ~spec ~ids ~timestamp:(Universe.now u) in
                         ignore (probe_flow ~r ~profile:(profile_of_chaos protocol) graph);
                         (u, ids, report))
                       Runner.all_protocols
                   in
                   {
                     task_domain = (Domain.self () :> int);
                     task_s = now () -. start;
                     task_spans = r.recorded;
                     task_reports = List.map (fun (_, _, rep) -> rep) per_protocol;
                     heights = List.concat_map (fun (_, ids, _) -> List.map key_height ids) per_protocol;
                     events =
                       List.fold_left
                         (fun acc (u, _, _) -> acc + Engine.executed_events (Universe.engine u))
                         0 per_protocol;
                     probe_universe = (if k = 0 then Some (let u, _, _ = List.hd per_protocol in u) else None);
                   }))))
  in
  let loop_s = now () -. t0 in
  let _, tasks_after = Pool.stats () in
  List.iter (fun t -> main_recorder.recorded <- t.task_spans @ main_recorder.recorded) tasks;
  let reports = List.concat_map (fun t -> t.task_reports) tasks in
  let u = Option.get (List.hd tasks).probe_universe in
  let heights = List.concat_map (fun t -> t.heights) tasks in
  let events = List.fold_left (fun acc t -> acc + t.events) 0 tasks in
  let probes = common_probes ~seed ~u ~events ~heights:(List.filteri (fun i _ -> i < 8) heights) in
  let merged = Metrics.create () in
  List.iter (fun (r : Runner.report) -> Metrics.merge_into ~into:merged r.Runner.obs.Obs.metrics) reports;
  let count = counter_totals merged in
  (* Busy time per domain; the calling domain takes tasks too. *)
  let by_domain = Hashtbl.create 4 in
  List.iter
    (fun t ->
      Hashtbl.replace by_domain t.task_domain
        (t.task_s +. Option.value ~default:0.0 (Hashtbl.find_opt by_domain t.task_domain)))
    tasks;
  let busy = Hashtbl.fold (fun _ s acc -> s :: acc) by_domain [] in
  let busy_total = List.fold_left ( +. ) 0.0 busy in
  let run_ms p = List.map (fun d -> d *. 1e3) (durations ("core.run_one." ^ Runner.protocol_name p)) in
  let layers =
    [
      ("sim.events", int_f events);
      ("crypto.identities", int_f (List.length heights));
      ("core.build_universe_ms", mean (durations "core.build_universe") *. 1e3);
    ]
    @ List.concat_map
        (fun p ->
          let name = Runner.protocol_name p in
          [
            ("core.run_ms_p50." ^ name, Ac3_sim.Stats.percentile (run_ms p) 50.0);
            ("core.run_ms_p90." ^ name, Ac3_sim.Stats.percentile (run_ms p) 90.0);
          ])
        Runner.all_protocols
    @ [
        ("chaos.plan_sample_us", mean (durations "chaos.plan_sample") *. 1e6);
        ("chaos.violations", int_f (List.length (List.filter Runner.failed reports)));
        ("chaos.unexplained", int_f (List.length (List.filter Runner.unexplained reports)));
        ( "chaos.interval_violations",
          int_f (List.length (List.filter (fun (r : Runner.report) -> r.Runner.flow_violations <> []) reports)) );
        ("par.tasks", int_f (tasks_after - tasks_before));
        ("par.busy_frac", busy_total /. (int_f jobs *. loop_s));
        ( "par.imbalance",
          List.fold_left Float.max 0.0 busy /. (busy_total /. int_f jobs) );
      ]
    @ probes @ registry_layers count @ gc_layers ()
  in
  ( loop_s,
    {
      ops = chaos_plans;
      attempted = List.length reports;
      failed = List.length (List.filter chaos_run_failed reports);
      errors = [];
      digest = "";
      verdicts = List.map verdict_line reports;
      layers;
    } )

(* --- check-ring ------------------------------------------------------------ *)

(* `ac3 check -s ring -n 9`: the protocols whose model covers rings, crash
   budget 1, and a node bound high enough that nothing is truncated. *)
let check_protocols = [ MC.Herlihy; MC.Ac3wn ]

let check_config = { MC.default_config with MC.max_nodes = 1_000_000; crash_budget = 1 }

let check_setup ~seed =
  let spec =
    { Plan.seed; shape = Plan.Ring; parties = 9; nchains = 9; extra_edges = 0; load = 1 }
  in
  let ids = Scenarios.identities ~ns:(Printf.sprintf "check-%d" seed) spec.Plan.parties in
  (spec, ids, Runner.build_graph ~spec ~ids ~timestamp:1.0)

let check_outcome results =
  let line (p, (r : MC.report)) =
    Fmt.str "%s ok=%b %a" (MC.protocol_name p) (MC.ok r) MC.pp_stats r.MC.stats
  in
  let bad (p, (r : MC.report)) =
    r.MC.stats.MC.truncated || (p = MC.Ac3wn && not (MC.ok r))
  in
  {
    ops = List.fold_left (fun acc (_, (r : MC.report)) -> acc + r.MC.stats.MC.nodes) 0 results;
    attempted = List.length results;
    failed = List.length (List.filter bad results);
    errors =
      List.filter_map
        (fun ((p, _) as pr) ->
          if bad pr then Some (MC.protocol_name p ^ " section is not ok or was truncated") else None)
        results;
    digest = Sha256.hexdigest (String.concat "\n" (List.map line results));
    verdicts = [];
    layers = [];
  }

let check_plain ~seed ~first_call =
  let _, _, graph = check_setup ~seed in
  first_call ();
  let t0 = now () in
  let results =
    List.map (fun p -> (p, MC.check ~config:check_config ~protocol:p ~graph)) check_protocols
  in
  (now () -. t0, check_outcome results)

let check_traced ~seed ~first_call =
  let spec, ids, graph = check_setup ~seed in
  first_call ();
  let t0 = now () in
  let results =
    List.map
      (fun p ->
        ( p,
          with_span ("model.check." ^ MC.protocol_name p) (fun () ->
              with_gc (fun () -> MC.check ~config:check_config ~protocol:p ~graph)) ))
      check_protocols
  in
  let wall = now () -. t0 in
  let outcome = check_outcome results in
  ignore (probe_flow ~profile:Flow.Witness graph);
  ignore (probe_flow ~profile:Flow.Single_leader graph);
  (* The check itself never runs a chain; the chain, contract and sim
     probes replay a short universe over the same identities and chains. *)
  let heights = List.filteri (fun i _ -> i < 4) (List.map key_height ids) in
  let u, _ = Scenarios.make_universe ~seed ~chains:(Plan.chain_names spec) ids () in
  Universe.run_until u 100.0;
  let probes = common_probes ~seed ~u ~events:0 ~heights in
  let stat f = int_f (List.fold_left (fun acc (_, (r : MC.report)) -> acc + f r.MC.stats) 0 results) in
  let layers =
    [
      ("crypto.identities", int_f (List.length ids));
      ("model.nodes", stat (fun s -> s.MC.nodes));
      ("model.transitions", stat (fun s -> s.MC.transitions));
      ("model.por_skipped", stat (fun s -> s.MC.por_skipped));
      ("model.peak_frontier", stat (fun s -> s.MC.peak_frontier));
    ]
    @ List.map
        (fun p -> ("model.check_s." ^ MC.protocol_name p, total_s ("model.check." ^ MC.protocol_name p)))
        check_protocols
    @ probes @ gc_layers ()
  in
  (wall, { outcome with layers })

(* --- Driver ---------------------------------------------------------------- *)

(* Workload executions so far in this process. A timed repetition must
   see 0: MSS key material and the memo tables are process-wide caches
   that a second run in the same process would find warm. *)
let workloads_run = ref 0

let host_json () =
  Json.Obj
    [
      ("domains_available", Json.Int (Domain.recommended_domain_count ()));
      ("sha_extensions", Json.Bool (Sha256.shani_available ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("jobs", Json.Int jobs);
    ]

let usage () =
  prerr_endline
    "usage: worker.exe (load-contended|chaos-faults|check-ring) --seed N --block B \
     --mode (plain|traced|setup) [--reps R] [--spans FILE]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let workload, rest = match args with w :: rest -> (w, rest) | [] -> usage () in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] rest in
  let get k = List.assoc_opt k opts in
  let int k default = match get k with Some v -> int_of_string v | None -> default in
  let seed = int "seed" 1 in
  (* check-ring has one input per seed. *)
  let block = if workload = "check-ring" then 0 else int "block" 0 in
  let reps = int "reps" 1 in
  (* Work per input: swaps, fault plans, or ring checks. *)
  let size =
    match workload with
    | "load-contended" -> load_config.Workload.swaps
    | "chaos-faults" -> chaos_plans
    | "check-ring" -> 1
    | _ -> usage ()
  in
  let mode = Option.value ~default:"plain" (get "mode") in
  for _ = 1 to reps do
    let warm_before = !workloads_run in
    let first_call_at = ref 0.0 in
    let first_call () =
      first_call_at := now ();
      if mode = "setup" then begin
        print_endline
          (Json.to_string (Json.Obj [ ("mode", Json.String "setup"); ("t_first_call", Json.Float !first_call_at) ]));
        exit 0
      end
    in
    let traced = mode = "traced" in
    let wall, o =
      match workload with
      | "load-contended" -> (if traced then load_traced else load_plain) ~seed ~block ~first_call
      | "chaos-faults" -> (if traced then chaos_traced else chaos_plain) ~seed ~block ~first_call
      | "check-ring" -> (if traced then check_traced else check_plain) ~seed ~first_call
      | _ -> usage ()
    in
    incr workloads_run;
    Option.iter
      (fun path -> write_spans ~path ~run_id:(Printf.sprintf "%s/seed%d" workload seed))
      (get "spans");
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("workload", Json.String workload);
              ("seed", Json.Int seed);
              ("block", Json.Int block);
              ("size", Json.Int size);
              ("mode", Json.String mode);
              ("warm_before", Json.Int warm_before);
              ("t_first_call", Json.Float !first_call_at);
              ("wall_s", Json.Float wall);
              ("ops", Json.Int o.ops);
              ("attempted", Json.Int o.attempted);
              ("failed", Json.Int o.failed);
              ("errors", Json.List (List.map (fun e -> Json.String e) o.errors));
              ("digest", Json.String o.digest);
              ("verdicts", Json.List (List.map (fun v -> Json.String v) o.verdicts));
              ("peak_rss_mb", Json.Float (peak_rss_mb ()));
              ("host", host_json ());
              ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) o.layers));
            ]))
  done
