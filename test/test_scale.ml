(* The scale experiment: streaming-mode semantics, the engine profile
   plumbing, and the 100k-root determinism golden — the same seed must
   produce a byte-identical Dsm.Metrics summary whether or not the
   bounded-memory (streaming) mode is on, for every protocol. A
   divergence would mean either the engine refactor broke determinism at
   scale or streaming changed what a run computes. *)

let submit_all rt (wl : Workload.Generator.t) =
  List.iter
    (fun (r : Workload.Generator.root_spec) ->
      Core.Runtime.submit rt ~at:r.at ~node:r.node ~oid:r.oid ~meth:r.meth ~seed:r.seed)
    wl.Workload.Generator.roots

let run_summary ~streaming ~protocol spec =
  let config =
    {
      Core.Config.default with
      Core.Config.protocol;
      node_count = spec.Workload.Spec.node_count;
      streaming;
    }
  in
  let wl = Workload.Generator.generate spec ~page_size:config.Core.Config.page_size in
  let rt = Core.Runtime.create ~config ~catalog:wl.Workload.Generator.catalog in
  submit_all rt wl;
  Core.Runtime.run rt;
  (Format.asprintf "%a" Dsm.Metrics.pp_summary (Core.Runtime.metrics rt), rt)

(* Streaming drops per-root results and the serializability history but
   must not change anything the metrics ledger sees. *)
let test_streaming_semantics () =
  let spec = Experiments.Scale.spec_for ~roots:500 ~nodes:8 in
  let plain, rt_plain = run_summary ~streaming:false ~protocol:Dsm.Protocol.Lotec spec in
  let streamed, rt_stream = run_summary ~streaming:true ~protocol:Dsm.Protocol.Lotec spec in
  Alcotest.(check string) "summary byte-identical" plain streamed;
  Alcotest.(check int) "plain retains results" 500
    (List.length (Core.Runtime.results rt_plain));
  Alcotest.(check int) "streaming retains none" 0
    (List.length (Core.Runtime.results rt_stream));
  (match Core.Runtime.check_serializable rt_stream with
  | Core.Serializability.Serializable _ -> ()
  | Core.Serializability.Cyclic _ -> Alcotest.fail "empty history cannot be cyclic");
  match Core.Runtime.check_serializable rt_plain with
  | Core.Serializability.Serializable _ -> ()
  | Core.Serializability.Cyclic _ -> Alcotest.fail "plain run must be serializable"

let test_streaming_requires_fault_free () =
  let faults = { Sim.Fault.none with Sim.Fault.drop_probability = 0.1 } in
  let config =
    { Core.Config.default with Core.Config.streaming = true; faults = Some faults }
  in
  match Core.Config.validate config with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "streaming with faults must be rejected"

let test_forget_family () =
  let tree = Txn.Txn_tree.create () in
  let root = Txn.Txn_tree.create_root tree ~node:0 in
  let child = Txn.Txn_tree.create_child tree ~parent:root in
  let _grandchild = Txn.Txn_tree.create_child tree ~parent:child in
  let other = Txn.Txn_tree.create_root tree ~node:1 in
  Alcotest.(check int) "family of three" 3 (Txn.Txn_tree.family_size tree root);
  Txn.Txn_tree.forget_family tree root;
  Alcotest.(check int) "ids never reused" 4 (Txn.Txn_tree.count tree);
  Alcotest.(check bool) "other family intact" true (Txn.Txn_tree.is_root tree other);
  Alcotest.check_raises "forgotten id unknown"
    (Invalid_argument (Format.asprintf "Txn_tree: unknown transaction %a" Txn.Txn_id.pp root))
    (fun () -> ignore (Txn.Txn_tree.status tree root))

(* Per-transaction and per-family state lives in id rings that streaming
   runs recycle: their capacity follows the in-flight work, so a run four
   times as long ends with the same capacity. *)
let test_slab_capacity_flat () =
  let capacity roots =
    let spec = Experiments.Scale.spec_for ~roots ~nodes:64 in
    let _, rt = run_summary ~streaming:true ~protocol:Dsm.Protocol.Lotec spec in
    Core.Runtime.slab_capacity rt
  in
  let c10 = capacity 10_000 and c40 = capacity 40_000 in
  Alcotest.(check bool) "small" true (c10 <= 1024);
  Alcotest.(check int) "same capacity at 10k and 40k roots" c10 c40

(* The generator's documented ascending-by-[at] contract, at a size well
   past List.init's reverse-evaluation threshold (~10k) — the original
   [List.init] construction silently handed the last root the first
   arrival time above that size, which any arrival-order consumer (the
   scale experiment's lazy feeder) turns into a thundering herd. *)
let test_roots_ascending () =
  let spec = Experiments.Scale.spec_for ~roots:20_000 ~nodes:16 in
  let wl = Workload.Generator.generate spec ~page_size:4096 in
  let ascending =
    let rec check = function
      | (a : Workload.Generator.root_spec) :: (b :: _ as rest) ->
          a.Workload.Generator.at <= b.Workload.Generator.at && check rest
      | _ -> true
    in
    check wl.Workload.Generator.roots
  in
  Alcotest.(check bool) "20k roots ascending by arrival time" true ascending;
  Alcotest.(check int) "all roots present" 20_000
    (List.length wl.Workload.Generator.roots)

(* run_point wires the profile counters through: every root accounted,
   events dispatched, and — because arrivals are fed lazily — a queue
   high-water far below the root count. *)
let test_run_point_profile () =
  let spec = Experiments.Scale.spec_for ~roots:300 ~nodes:8 in
  let row = Experiments.Scale.run_point ~protocol:Dsm.Protocol.Lotec ~spec () in
  Alcotest.(check int) "roots accounted" 300
    (row.Experiments.Scale.s_committed + row.Experiments.Scale.s_aborted);
  let p = row.Experiments.Scale.s_profile in
  Alcotest.(check bool) "events dispatched" true (p.Experiments.Scale.dispatched > 0);
  Alcotest.(check bool) "scheduled >= dispatched" true
    (p.Experiments.Scale.scheduled >= p.Experiments.Scale.dispatched);
  Alcotest.(check bool) "queue high-water positive" true (p.Experiments.Scale.max_queue > 0);
  Alcotest.(check bool) "lazy feed keeps the queue shallow" true
    (p.Experiments.Scale.max_queue < 300);
  Alcotest.(check bool) "wall clock measured" true (p.Experiments.Scale.wall_s > 0.0)

(* The micro-benchmark at toy sizes: ops accounting per component, and
   the JSON payload (with a sweep row) is well-formed. *)
let test_engine_bench_and_json () =
  let b =
    Experiments.Scale.engine_bench ~dispatch_events:1_000 ~dispatch_timers:10 ~fibers:200
      ~waiters:100 ~rounds:1 ()
  in
  Alcotest.(check int) "five components" 5 (List.length b.Experiments.Scale.rows);
  List.iter
    (fun (r : Experiments.Scale.bench_row) ->
      Alcotest.(check bool) (r.Experiments.Scale.component ^ " ops positive") true
        (r.Experiments.Scale.ops > 0 && r.Experiments.Scale.ops_per_sec > 0.0))
    b.Experiments.Scale.rows;
  let spec = Experiments.Scale.spec_for ~roots:50 ~nodes:4 in
  let row = Experiments.Scale.run_point ~protocol:Dsm.Protocol.Otec ~spec () in
  let json = Experiments.Scale.to_json ~bench:b ~scale:[ row ] () in
  match Dsm.Trace_export.validate_json json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "BENCH_engine.json payload is not valid JSON: %s" e

(* The rate helper behind every ops/sec and events/sec column: a
   sub-resolution wall time must clamp instead of dividing by zero —
   regression pin for the Inf/NaN rates toy-sized benches used to print. *)
let test_per_sec_clamps () =
  Alcotest.(check (float 1e-9)) "normal rate" 500.0 (Experiments.Scale.per_sec 1000 2.0);
  Alcotest.(check (float 1e-9)) "zero ops" 0.0 (Experiments.Scale.per_sec 0 1.0);
  Alcotest.(check bool) "zero wall clamps finite" true
    (Float.is_finite (Experiments.Scale.per_sec 1000 0.0));
  Alcotest.(check bool) "negative wall clamps finite" true
    (Float.is_finite (Experiments.Scale.per_sec 1000 (-1.0)));
  Alcotest.(check bool) "zero ops, zero wall is not NaN" true
    (Experiments.Scale.per_sec 0 0.0 = 0.0)

(* The 100k-root golden. Streaming vs plain doubles as a determinism
   check: two full submissions/runs of the same seed from different
   process states must land on the identical summary string. The
   committed counts are pinned so a silent workload or scheduling drift
   fails loudly rather than shifting both runs in lockstep. *)
let committed_golden =
  [
    (Dsm.Protocol.Cotec, 100_000);
    (Dsm.Protocol.Otec, 100_000);
    (Dsm.Protocol.Lotec, 100_000);
    (Dsm.Protocol.Rc_nested, 100_000);
  ]

let test_scale_determinism () =
  let spec = Experiments.Scale.spec_for ~roots:100_000 ~nodes:64 in
  List.iter
    (fun (protocol, expect_committed) ->
      let name = Format.asprintf "%a" Dsm.Protocol.pp protocol in
      let streamed, rt = run_summary ~streaming:true ~protocol spec in
      let streamed', _ = run_summary ~streaming:true ~protocol spec in
      Alcotest.(check string) (name ^ ": summary byte-identical across runs") streamed
        streamed';
      let totals = Dsm.Metrics.totals (Core.Runtime.metrics rt) in
      Alcotest.(check int)
        (name ^ ": committed golden")
        expect_committed totals.Dsm.Metrics.roots_committed;
      Alcotest.(check int)
        (name ^ ": every root accounted")
        100_000
        (totals.Dsm.Metrics.roots_committed + totals.Dsm.Metrics.roots_aborted))
    committed_golden

(* Per-event cost must not grow with run length: bookkeeping whose cost
   follows history (say, a lock table walked in full at every pre-commit)
   shows up as allocation per dispatched event rising with the root count.
   Words/event at 4N roots must stay within 10% of N's. *)
let words_per_event roots =
  let spec = Experiments.Scale.spec_for ~roots ~nodes:64 in
  let row = Experiments.Scale.run_point ~protocol:Dsm.Protocol.Lotec ~spec () in
  let p = row.Experiments.Scale.s_profile in
  p.Experiments.Scale.alloc_mb *. 1e6
  /. float_of_int (Sys.word_size / 8)
  /. float_of_int p.Experiments.Scale.dispatched

let test_flat_alloc_per_event () =
  let small = words_per_event 10_000 in
  let large = words_per_event 40_000 in
  if large > 1.10 *. small then
    Alcotest.failf "words/event grew with run length: %.1f at 10k roots, %.1f at 40k" small
      large

(* Per-root fixed cost: on the bank preset under escrow a root dispatches
   under ten events, so any per-root bookkeeping (a formatted fiber name, a
   functor applied per call, a hash table built per commit) dominates the
   words allocated per event. History-keeping (not streaming), arrivals at
   the benchmark's steady 200 us; submit and run are both measured. *)
let bank_escrow_words_per_event ~roots =
  let spec =
    { Workload.Scenarios.bank with Workload.Spec.root_count = roots; arrival_mean_us = 200.0 }
  in
  let config =
    {
      Core.Config.default with
      Core.Config.protocol = Dsm.Protocol.Lotec;
      node_count = spec.Workload.Spec.node_count;
      escrow = Dsm.Escrow.On Dsm.Escrow.default_params;
    }
  in
  let wl = Workload.Generator.generate spec ~page_size:config.Core.Config.page_size in
  let rt = Core.Runtime.create ~config ~catalog:wl.Workload.Generator.catalog in
  let words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
  let g0 = Gc.quick_stat () in
  submit_all rt wl;
  Core.Runtime.run rt;
  let g1 = Gc.quick_stat () in
  let totals = Dsm.Metrics.totals (Core.Runtime.metrics rt) in
  Alcotest.(check int) "every root committed" roots totals.Dsm.Metrics.roots_committed;
  (words g1 -. words g0)
  /. float_of_int (Sim.Engine.stats (Core.Runtime.engine rt)).Sim.Engine.dispatched

(* About 93 words/event on OCaml 5.1; about 225 with the per-root fixed
   costs above. *)
let test_bank_escrow_alloc_ceiling () =
  let w = bank_escrow_words_per_event ~roots:4_000 in
  if w > 120.0 then
    Alcotest.failf "bank-escrow allocates %.1f words/event, ceiling 120" w

let tests =
  [
    ( "scale",
      [
        Alcotest.test_case "streaming preserves the summary" `Quick test_streaming_semantics;
        Alcotest.test_case "streaming requires fault-free" `Quick
          test_streaming_requires_fault_free;
        Alcotest.test_case "forget_family" `Quick test_forget_family;
        Alcotest.test_case "slab capacity flat at 10k and 40k roots" `Slow
          test_slab_capacity_flat;
        Alcotest.test_case "roots ascending by arrival" `Quick test_roots_ascending;
        Alcotest.test_case "run_point profile" `Quick test_run_point_profile;
        Alcotest.test_case "engine bench + json" `Quick test_engine_bench_and_json;
        Alcotest.test_case "per_sec clamps" `Quick test_per_sec_clamps;
        Alcotest.test_case "flat words per event" `Slow test_flat_alloc_per_event;
        Alcotest.test_case "bank-escrow words per event ceiling" `Quick
          test_bank_escrow_alloc_ceiling;
        Alcotest.test_case "100k determinism golden" `Slow test_scale_determinism;
      ] );
  ]
