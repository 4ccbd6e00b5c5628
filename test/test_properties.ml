(* Whole-system property tests: random small workloads, every protocol,
   checked against the system's global invariants. These are the paper's
   correctness claims (§4.3) exercised mechanically:

   - every committed history is conflict-serializable;
   - after a run, every GDO lock is free with no waiters (nothing leaks);
   - the GDO page map never points at a node whose store lacks the version;
   - per-acquisition data traffic keeps the LOTEC/OTEC/COTEC ordering
     within the schedule-noise bounds quantified below;
   - runs are deterministic. *)

open Objmodel

let spec_gen =
  QCheck.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* object_count = int_range 3 15 in
    let* min_pages = int_range 1 4 in
    let* extra = int_range 0 6 in
    let* root_count = int_range 5 30 in
    let* node_count = int_range 2 6 in
    let* abort_pct = int_range 0 25 in
    return (seed, object_count, (min_pages, min_pages + extra), root_count, node_count, abort_pct))

let arb_spec =
  QCheck.make
    ~print:(fun (seed, oc, (lo, hi), rc, nc, ap) ->
      Printf.sprintf "seed=%d objects=%d pages=%d-%d roots=%d nodes=%d abort%%=%d" seed oc lo hi
        rc nc ap)
    spec_gen

let build (seed, object_count, (min_pages, max_pages), root_count, node_count, abort_pct) =
  let spec =
    {
      Workload.Spec.default with
      Workload.Spec.seed;
      object_count;
      min_pages;
      max_pages;
      root_count;
      node_count;
    }
  in
  let config =
    {
      Core.Config.default with
      Core.Config.node_count;
      abort_probability = float_of_int abort_pct /. 100.0;
    }
  in
  (spec, config)

let run_one ~protocol (spec, config) =
  let wl = Workload.Generator.generate spec ~page_size:config.Core.Config.page_size in
  Experiments.Runner.execute ~config ~protocol wl

let all_locks_free run =
  let rt = run.Experiments.Runner.runtime in
  let dir = Core.Runtime.directory rt in
  List.for_all
    (fun o ->
      Gdo.Directory.lock_state dir o = Gdo.Directory.Free
      && Gdo.Directory.waiting_count dir o = 0
      && Gdo.Directory.holders dir o = [])
    (Catalog.oids (Core.Runtime.catalog rt))

let page_map_consistent run =
  let rt = run.Experiments.Runner.runtime in
  let dir = Core.Runtime.directory rt in
  List.for_all
    (fun o ->
      let nodes, versions = Gdo.Directory.page_map dir o in
      Array.for_all Fun.id
        (Array.mapi
           (fun p node ->
             Dsm.Page_store.version (Core.Runtime.store rt ~node) o ~page:p >= versions.(p))
           nodes))
    (Catalog.oids (Core.Runtime.catalog rt))

(* Runner.execute already fails on non-serializable histories, so reaching
   here implies serializability; we re-check explicitly for clarity. *)
let serializable run =
  match Core.Runtime.check_serializable run.Experiments.Runner.runtime with
  | Core.Serializability.Serializable _ -> true
  | Core.Serializability.Cyclic _ -> false

let prop_invariants_all_protocols =
  QCheck.Test.make ~name:"locks free, map consistent, serializable (all protocols)" ~count:25
    arb_spec (fun params ->
      let inputs = build params in
      List.for_all
        (fun protocol ->
          let run = run_one ~protocol inputs in
          all_locks_free run && page_map_consistent run && serializable run)
        Dsm.Protocol.all)

(* Data bytes per acquisition, and per data-moving round: an acquisition
   that transferred pages, or a demand fetch (both counted from the run's
   trace). *)
let data_rates ~protocol (spec, config) =
  let config =
    { config with Core.Config.trace_capacity = 64 * spec.Workload.Spec.root_count }
  in
  let run = run_one ~protocol (spec, config) in
  let m = Experiments.Runner.metrics run in
  let data = float_of_int (Dsm.Metrics.total_data_bytes m) in
  let per n = if n = 0 then 0.0 else data /. float_of_int n in
  let rounds =
    match Core.Runtime.trace run.Experiments.Runner.runtime with
    | None -> assert false
    | Some tr ->
        List.length
          (List.filter
             (fun (e : Dsm.Event.t Sim.Trace.entry) ->
               match e.Sim.Trace.data with
               | Dsm.Event.Transfer _ | Dsm.Event.Demand_fetch _ -> true
               | _ -> false)
             (Sim.Trace.events tr))
  in
  (per (Dsm.Metrics.totals m).Dsm.Metrics.global_acquisitions, per rounds, rounds)

(* The per-acquisition subset property (LOTEC set ⊆ OTEC set ⊆ COTEC set
   for a fixed staleness snapshot) is exact and tested at the
   Protocol.transfer_set level. At the whole-system level, different
   protocols produce different interleavings on tiny high-conflict
   clusters — acquisition counts diverge, ownership ping-pongs differently,
   staleness snapshots differ — so per-run cross-protocol totals carry
   scheduling noise in both directions (observed: OTEC with 32
   acquisitions where COTEC took 28; OTEC 5 % above COTEC). What must
   survive arbitrary schedules: LOTEC per acquisition never exceeds COTEC's
   (the headline gap is large), and the neighbouring comparisons hold
   within bounded noise.

   LOTEC against OTEC is compared per data-moving round, not per
   acquisition. LOTEC's smaller transfers finish sooner, which can let a
   waiting remote family take an object earlier and split one node's run
   of acquisitions in two: the same acquisitions, more of them moving data.
   On the pinned input below both make 15 acquisitions, but LOTEC moves an
   object between the two nodes in 5 rounds against OTEC's 2, so it carries
   1.5x OTEC's bytes per acquisition while each of its rounds is 40 % smaller.
   Per round, a LOTEC that stopped filtering (= OTEC behaviour) would still
   trip the 1.4 bound. The margins are regression detectors, not the
   paper's claim; the paper-scale strict orderings are asserted on the
   deterministic scenarios. *)
let byte_ordering_holds params =
  let spec, config = build params in
  (* Abort retries perturb schedules further; keep failure-free runs. *)
  let inputs = (spec, { config with Core.Config.abort_probability = 0.0 }) in
  let cotec, _, _ = data_rates ~protocol:Dsm.Protocol.Cotec inputs in
  let otec, otec_round, _ = data_rates ~protocol:Dsm.Protocol.Otec inputs in
  let lotec, lotec_round, _ = data_rates ~protocol:Dsm.Protocol.Lotec inputs in
  lotec <= (cotec *. 1.15) +. 1.0
  && lotec_round <= (otec_round *. 1.40) +. 1.0
  && otec <= (cotec *. 1.25) +. 1.0

let prop_byte_ordering =
  QCheck.Test.make ~name:"data bytes per acquisition: ordering within noise" ~count:20 arb_spec
    byte_ordering_holds

(* The input that made the per-acquisition LOTEC/OTEC comparison fail (one
   full-suite run in about twelve drew something like it). *)
let pinned_ping_pong = (888659, 3, (2, 4), 13, 2, 7)

let test_pinned_ping_pong () =
  let spec, config = build pinned_ping_pong in
  let inputs = (spec, { config with Core.Config.abort_probability = 0.0 }) in
  let acquisitions protocol =
    let run = run_one ~protocol inputs in
    (Dsm.Metrics.totals (Experiments.Runner.metrics run)).Dsm.Metrics.global_acquisitions
  in
  let otec, otec_round, otec_rounds = data_rates ~protocol:Dsm.Protocol.Otec inputs in
  let lotec, lotec_round, lotec_rounds = data_rates ~protocol:Dsm.Protocol.Lotec inputs in
  Alcotest.(check int) "OTEC acquisitions" 15 (acquisitions Dsm.Protocol.Otec);
  Alcotest.(check int) "LOTEC acquisitions" 15 (acquisitions Dsm.Protocol.Lotec);
  Alcotest.(check (float 0.5)) "OTEC bytes per acquisition" 1664.0 otec;
  Alcotest.(check (float 0.5)) "LOTEC bytes per acquisition" 2496.0 lotec;
  Alcotest.(check int) "OTEC data rounds" 2 otec_rounds;
  Alcotest.(check int) "LOTEC data rounds" 5 lotec_rounds;
  Alcotest.(check bool) "LOTEC rounds smaller" true (lotec_round < otec_round);
  Alcotest.(check bool) "ordering holds" true (byte_ordering_holds pinned_ping_pong)

let prop_deterministic =
  QCheck.Test.make ~name:"same inputs, same run" ~count:10 arb_spec (fun params ->
      let inputs = build params in
      let fingerprint () =
        let run = run_one ~protocol:Dsm.Protocol.Lotec inputs in
        let m = Experiments.Runner.metrics run in
        ( Dsm.Metrics.total_bytes m,
          Dsm.Metrics.total_messages m,
          Dsm.Metrics.completion_time_us m,
          (Dsm.Metrics.totals m).Dsm.Metrics.roots_committed )
      in
      fingerprint () = fingerprint ())

let prop_all_roots_resolve =
  QCheck.Test.make ~name:"every submitted root commits or gives up explicitly" ~count:20
    arb_spec (fun params ->
      let _, config = build params in
      let spec, _ = build params in
      let run = run_one ~protocol:Dsm.Protocol.Lotec (spec, config) in
      let results = Core.Runtime.results run.Experiments.Runner.runtime in
      List.length results = spec.Workload.Spec.root_count
      && List.for_all
           (fun (r : Core.Runtime.root_result) ->
             r.Core.Runtime.completed_at >= r.Core.Runtime.submitted_at
             && r.Core.Runtime.attempts >= 1)
           results)

let prop_demand_fetches_only_lazy =
  QCheck.Test.make ~name:"demand fetches only under lazy protocols" ~count:15 arb_spec
    (fun params ->
      let inputs = build params in
      List.for_all
        (fun protocol ->
          let run = run_one ~protocol inputs in
          let t = Dsm.Metrics.totals (Experiments.Runner.metrics run) in
          Dsm.Protocol.demand_fetch_allowed protocol || t.Dsm.Metrics.demand_fetches = 0)
        [ Dsm.Protocol.Cotec; Dsm.Protocol.Otec; Dsm.Protocol.Lotec ])

let tests =
  [
    ( "properties",
      [
        QCheck_alcotest.to_alcotest ~long:true prop_invariants_all_protocols;
        QCheck_alcotest.to_alcotest ~long:true prop_byte_ordering;
        Alcotest.test_case "byte ordering: pinned 2-node ping-pong" `Quick test_pinned_ping_pong;
        QCheck_alcotest.to_alcotest ~long:true prop_deterministic;
        QCheck_alcotest.to_alcotest ~long:true prop_all_roots_resolve;
        QCheck_alcotest.to_alcotest ~long:true prop_demand_fetches_only_lazy;
      ] );
  ]
