(* The LOTEC benchmark: four workloads, two clocks, one process.

   Every run drives the public API — [Workload.Generator.generate], then
   [Core.Runtime.create] / [submit] / [run], then the output checks — and
   prints each metric by name with its unit. The last line of standard
   output is one JSON object {correct, attempted, failed, metrics}.

   --trace 0  repeats untraced samples of the workload for --seconds and
              reports the end-to-end metrics: host-clock medians over the
              samples, simulated-clock values (identical in every sample).
   --trace 1  reports the per-layer metrics: timings of the benchmark's
              own calls into each module, counter ratios, GC deltas, and a
              separate traced sample whose event stream is also replayed
              against fresh [Gdo.Directory] / [Dsm.Page_store] instances.
   --steadiness  runs each workload at two run lengths and checks that
              root p99 latency and events per root stay flat; the bank
              preset's saturated arrival rate must be rejected.

   See perfbench/README.md for every metric and workload. *)

(* ------------------------------------------------------------------ *)
(* Clocks and small statistics                                         *)

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let timed f =
  let t0 = now_ns () in
  let x = f () in
  (x, seconds_since t0)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The calibration task: a fixed piece of work that uses the standard
   library only, so no change to the simulator can speed it up. It churns
   a 20k-entry priority queue (a [Map] keyed by time) and a hash table, the
   allocation and pointer-chasing pattern of an event loop, for about
   0.08 s. Host timings scaled by it are stable where raw seconds are not:
   machine speed drifts between modes that last seconds, and over ten
   25 s runs of bank-escrow the median run time spread 16% but run time
   over calibration time spread 5%. *)
module Queue_key = Map.Make (struct
  type t = float * int

  let compare (a, i) (b, j) =
    let c = Float.compare a b in
    if c <> 0 then c else Int.compare i j
end)

(* The calibration task's duration on a quiet machine. Host times are
   reported in calibrated seconds: measured seconds x [nominal_cal_s] / the
   sample's measured calibration time. *)
let nominal_cal_s = 0.08

let calibration () =
  let t0 = now_ns () in
  let h = Hashtbl.create 65536 in
  let q = ref Queue_key.empty in
  let x = ref 1 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x
  in
  for i = 1 to 20_000 do
    q := Queue_key.add (float_of_int (next () land 0xffff), i) i !q
  done;
  for i = 1 to 40_000 do
    let ((t, _) as k), v = Queue_key.min_binding !q in
    q := Queue_key.add (t +. float_of_int (next () land 0xff), i) v (Queue_key.remove k !q);
    Hashtbl.replace h (next () land 0xffff) (t, v)
  done;
  ignore (Sys.opaque_identity (Queue_key.cardinal !q + Hashtbl.length h));
  seconds_since t0

let ratio num den = if den = 0.0 then 0.0 else num /. den
let per n d = ratio (float_of_int n) (float_of_int d)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload = {
  name : string;
  roots : int;  (** roots per sample *)
  spec : roots:int -> Workload.Spec.t;  (** the preset, with its own seed *)
  config : seed:int -> Core.Config.t;
}

let lotec = { Core.Config.default with Core.Config.protocol = Dsm.Protocol.Lotec }

(* The streaming scale point: 64 nodes, 2,048 objects, no subsystem. *)
let stream_64 =
  {
    name = "stream-64";
    roots = 10_000;
    spec =
      (fun ~roots -> Experiments.Scale.spec_for ~roots ~nodes:64);
    config = (fun ~seed:_ -> { lotec with Core.Config.streaming = true });
  }

(* Read-mostly catalog browsing with the cache experiment's fixed-TTL
   lease and LRU method cache; full history, serializability checked.
   97% reads at 200 us keep the median root inside the zero-message mode
   and the p99 steady (see README.md). *)
let web_read =
  {
    name = "web-read";
    roots = 40_000;
    spec =
      (fun ~roots ->
        {
          Workload.Scenarios.web_catalog with
          Workload.Spec.root_count = roots;
          root_update_fraction = Some 0.03;
          arrival_mean_us = 200.0;
        });
    config =
      (fun ~seed:_ ->
        {
          lotec with
          Core.Config.lease = Experiments.Method_cache.default_lease;
          method_cache = Experiments.Method_cache.default_policy;
        });
  }

(* Write-dominated hot accounts under escrow, arrivals slowed from the
   preset's saturated 40 us to a steady 200 us. *)
let bank_arrival_us = 200.0

let bank_escrow_at arrival_mean_us =
  {
    name = "bank-escrow";
    roots = 100_000;
    spec =
      (fun ~roots ->
        { Workload.Scenarios.bank with Workload.Spec.root_count = roots; arrival_mean_us });
    config =
      (fun ~seed:_ ->
        { lotec with Core.Config.escrow = Dsm.Escrow.On Dsm.Escrow.default_params });
  }

let bank_escrow = bank_escrow_at bank_arrival_us

(* Every lever on a lossy, crashing interconnect: the only workload where
   the reliable transport, batching, shipping, the failure detector,
   quorum membership and failover run. *)
let lossy_levers =
  {
    name = "lossy-levers";
    roots = 4_000;
    spec =
      (fun ~roots ->
        {
          (Experiments.Function_shipping.default_spec ~skew:1.5) with
          Workload.Spec.root_count = roots;
          arrival_mean_us = 8_000.0;
          invoke_probability = 0.4;
        });
    config =
      (fun ~seed ->
        {
          lotec with
          Core.Config.faults =
            Some
              {
                Sim.Fault.none with
                Sim.Fault.seed = seed + 1;
                drop_probability = 0.03;
                delay_jitter_us = 30.0;
                windows =
                  [
                    {
                      Sim.Fault.w_node = 2;
                      w_kind = Sim.Fault.Crash;
                      w_from_us = 400_000.0;
                      w_until_us = 405_000.0;
                    };
                  ];
              };
          gdo_replicas = 1;
          request_timeout_us = 500.0;
          max_retransmits = 3;
          heartbeat_interval_us = 500.0;
          suspect_timeout_us = 1_500.0;
          batching = Dsm.Batching.all;
          lease = Experiments.Method_cache.default_lease;
          shipping = Dsm.Shipping.On Dsm.Shipping.default_params;
        });
  }

let workloads = [ stream_64; web_read; bank_escrow; lossy_levers ]

(* ------------------------------------------------------------------ *)
(* GC pauses from the runtime's own event ring (trace mode only)       *)

module Pauses = struct
  (* Minor collections and major slices are the pauses a single-domain
     program sees; their union (they can nest) is the pause time. *)
  let counted = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false

  let depth = ref 0
  let since = ref 0L
  let total_ns = ref 0L
  let lost = ref 0
  let cursor = ref None

  let callbacks =
    let ts t = Runtime_events.Timestamp.to_int64 t in
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t phase ->
        if counted phase then begin
          if !depth = 0 then since := ts t;
          incr depth
        end)
      ~runtime_end:(fun _ t phase ->
        if counted phase && !depth > 0 then begin
          decr depth;
          if !depth = 0 then total_ns := Int64.add !total_ns (Int64.sub (ts t) !since)
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let start () =
    (* Keep the ring file under the build directory when run from the
       checkout root, as run.sh does. *)
    if Sys.file_exists "_build" then Unix.putenv "OCAML_RUNTIME_EVENTS_DIR" "_build";
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  let poll () =
    match !cursor with
    | None -> ()
    | Some c -> ignore (Runtime_events.read_poll c callbacks None : int)

  (* Drain what happened so far, then zero the accumulator. *)
  let reset () =
    poll ();
    total_ns := 0L

  let seconds () =
    poll ();
    Int64.to_float !total_ns /. 1e9
end

(* ------------------------------------------------------------------ *)
(* One sample: set-up, run, checks                                     *)

(* Simulated-clock results and counters: exact for a fixed seed, so two
   samples of one seed — traced or not — must agree bit for bit. *)
type sim = {
  events : int;
  scheduled : int;
  max_queue : int;
  committed : int;
  gave_up : int;
  latency_n : int;
  mean_us : float;
  tail_us : float;
  p50_us : float;
  p99_us : float;
  acquire_p50_us : float;
  acquire_p99_us : float;
  recovery_p99_us : float;
  messages : int;
  bytes : int;
  data_bytes : int;
  home_lock_ops : int;
  makespan_us : float;
  totals : Dsm.Metrics.totals;
  wire : (Dsm.Wire.t * int * int) list;
}

type checks = {
  failures : string list;  (** one message per failed check; [] passes *)
  check_s : float;
  escrow_check_s : float;
  audit_s : float;
}

(* What the layer replay needs from a traced sample. *)
type replay = {
  catalog : Objmodel.Catalog.t;
  node_count : int;
  events : Dsm.Event.t Sim.Trace.entry list;
  dropped : int;
}

type sample = {
  roots : int;
  sim : sim;
  generate_s : float;
  create_s : float;
  feed_s : float;
  run_s : float;
  verify_s : float;
  cal_s : float;  (** calibration task, mean of one run before set-up and one after [run] *)
  checks : checks;
  alloc_words : float;
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  pause_s : float;
  top_heap_words : int;
  replay : replay option;  (** traced samples only *)
}

let setup_s s = s.generate_s +. s.create_s +. s.feed_s

(* Lazy arrival feeding, as the scale experiment does it: one pending
   feeder event that submits each root when the clock reaches its [at]. *)
let feed rt (roots : Workload.Generator.root_spec list) ~on_arrival =
  let engine = Core.Runtime.engine rt in
  let rec next = function
    | [] -> ()
    | (r : Workload.Generator.root_spec) :: rest ->
        let delay = Float.max 0.0 (r.at -. Sim.Engine.now engine) in
        Sim.Engine.schedule engine ~delay (fun () ->
            on_arrival ();
            Core.Runtime.submit rt ~at:0.0 ~node:r.node ~oid:r.oid ~meth:r.meth ~seed:r.seed;
            next rest)
  in
  next roots

(* Mean latency of the slowest 1% of the recorded roots, from the
   histogram's order statistics (each within its 1/32 bucket error; the
   slowest is exact). Unlike a single percentile it does not sit on one
   fixed-cost protocol path: on bank-escrow p99 and p99.9 read exactly
   951.12 us and 1,813.6 us on every seed. *)
let tail_mean h =
  let n = Dsm.Histogram.count h in
  let k = max 1 (n / 100) in
  let sum = ref 0.0 in
  for r = n - k + 1 to n do
    sum := !sum +. Dsm.Histogram.percentile h (100.0 *. (float_of_int r -. 0.5) /. float_of_int n)
  done;
  ratio !sum (float_of_int k)

let sim_of rt =
  let m = Core.Runtime.metrics rt in
  let st = Sim.Engine.stats (Core.Runtime.engine rt) in
  let t = Dsm.Metrics.totals m in
  let commit = Dsm.Metrics.commit_latency m in
  let acquire = Dsm.Metrics.acquire_latency m in
  {
    events = st.Sim.Engine.dispatched;
    scheduled = st.Sim.Engine.scheduled;
    max_queue = st.Sim.Engine.max_queue;
    committed = t.Dsm.Metrics.roots_committed;
    gave_up = t.Dsm.Metrics.roots_aborted;
    latency_n = Dsm.Histogram.count commit;
    mean_us = Dsm.Histogram.mean commit;
    tail_us = tail_mean commit;
    p50_us = Dsm.Histogram.percentile commit 50.0;
    p99_us = Dsm.Histogram.percentile commit 99.0;
    acquire_p50_us = Dsm.Histogram.percentile acquire 50.0;
    acquire_p99_us = Dsm.Histogram.percentile acquire 99.0;
    recovery_p99_us = Dsm.Histogram.percentile (Dsm.Metrics.recovery_latency m) 99.0;
    messages = Dsm.Metrics.total_messages m;
    bytes = Dsm.Metrics.total_bytes m;
    data_bytes = Dsm.Metrics.total_data_bytes m;
    home_lock_ops = Dsm.Metrics.home_lock_ops m;
    makespan_us = Dsm.Metrics.completion_time_us m;
    totals = t;
    wire = Dsm.Metrics.wire_breakdown m;
  }

(* One pass of the output checks. *)
let verify_pass rt ~roots =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let verdict, check_s = timed (fun () -> Core.Runtime.check_serializable rt) in
  (match verdict with
  | Core.Serializability.Serializable _ -> ()
  | Core.Serializability.Cyclic cycle ->
      fail "serializability: conflict cycle of %d families" (List.length cycle));
  let escrow, escrow_check_s = timed (fun () -> Core.Runtime.check_escrow rt) in
  (match escrow with
  | Ok _ -> ()
  | Error errs -> fail "escrow replay: %s" (String.concat "; " (List.filteri (fun i _ -> i < 3) errs)));
  let audit, audit_s = timed (fun () -> Core.Runtime.audit rt) in
  List.iter (fun e -> fail "audit: %s" e) audit;
  let m = Core.Runtime.metrics rt in
  if Dsm.Metrics.wire_messages_total m <> Dsm.Metrics.total_messages m then
    fail "wire ledger: %d wire messages <> %d network messages"
      (Dsm.Metrics.wire_messages_total m) (Dsm.Metrics.total_messages m);
  if Dsm.Metrics.wire_bytes_total m <> Dsm.Metrics.total_bytes m then
    fail "wire ledger: %d wire bytes <> %d network bytes" (Dsm.Metrics.wire_bytes_total m)
      (Dsm.Metrics.total_bytes m);
  let t = Dsm.Metrics.totals m in
  if t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted <> roots then
    fail "root accounting: %d committed + %d gave up <> %d submitted"
      t.Dsm.Metrics.roots_committed t.Dsm.Metrics.roots_aborted roots;
  { failures = List.rev !failures; check_s; escrow_check_s; audit_s }

(* The checks are pure functions of the finished run. Passes repeat until
   [min_verify_s] has been spent and the mean per pass is reported, so
   millisecond checks are not timer noise. Returns the checks and the
   seconds per pass. *)
let min_verify_s = 0.1

let verify rt ~roots =
  let rec go passes total =
    if passes <> [] && total >= min_verify_s then (passes, total)
    else
      let c, s = timed (fun () -> verify_pass rt ~roots) in
      go (c :: passes) (total +. s)
  in
  let passes, total = go [] 0.0 in
  let n = float_of_int (List.length passes) in
  let mean f = List.fold_left (fun acc c -> acc +. f c) 0.0 passes /. n in
  ( {
      failures = (List.hd passes).failures;
      check_s = mean (fun c -> c.check_s);
      escrow_check_s = mean (fun c -> c.escrow_check_s);
      audit_s = mean (fun c -> c.audit_s);
    },
    total /. n )

(* Trace ring size: large enough that nothing is evicted. *)
let trace_capacity ~roots = 4096 + (roots * 64)

let sample ?(traced = false) ?(on_arrival = ignore) w ~seed ~roots =
  let spec = w.spec ~roots in
  let base = w.config ~seed in
  let config =
    {
      base with
      Core.Config.node_count = spec.Workload.Spec.node_count;
      trace_capacity = (if traced then trace_capacity ~roots else 0);
    }
  in
  (* Calibrate first, then compact, so that neither the calibration's data
     nor the previous sample's garbage is in the heap during this one. *)
  let cal0 = calibration () in
  Gc.compact ();
  (* The catalog is the workload's fixed data set, drawn from the preset's
     own seed; [seed] draws the root stream (targets, methods, nodes,
     arrival times). Roots name objects and methods by index, so a stream
     drawn from any seed fits the preset's catalog. *)
  let wl, generate_s =
    timed (fun () ->
        let page_size = config.Core.Config.page_size in
        let catalog =
          (Workload.Generator.generate { spec with Workload.Spec.root_count = 1 } ~page_size)
            .Workload.Generator.catalog
        in
        let stream = Workload.Generator.generate { spec with Workload.Spec.seed } ~page_size in
        { stream with Workload.Generator.catalog })
  in
  let rt, create_s =
    timed (fun () -> Core.Runtime.create ~config ~catalog:wl.Workload.Generator.catalog)
  in
  let (), feed_s = timed (fun () -> feed rt wl.Workload.Generator.roots ~on_arrival) in
  Pauses.reset ();
  let g0 = Gc.quick_stat () in
  let raised, run_s =
    timed (fun () ->
        match Core.Runtime.run rt with
        | () -> None
        | exception Sim.Engine.Stalled msg -> Some ("engine stalled: " ^ msg)
        | exception e -> Some ("run raised " ^ Printexc.to_string e))
  in
  let g1 = Gc.quick_stat () in
  let cal1 = calibration () in
  let pause_s = Pauses.seconds () in
  let checks, verify_s = verify rt ~roots in
  let replay =
    Option.map
      (fun tr ->
        {
          catalog = wl.Workload.Generator.catalog;
          node_count = config.Core.Config.node_count;
          events = Sim.Trace.events tr;
          dropped = Sim.Trace.dropped tr;
        })
      (Core.Runtime.trace rt)
  in
  let failures =
    Option.to_list raised @ checks.failures
    @
    match replay with
    | Some r when r.dropped > 0 -> [ Printf.sprintf "trace dropped %d events" r.dropped ]
    | _ -> []
  in
  let d f = f g1 -. f g0 in
  {
    roots;
    sim = sim_of rt;
    generate_s;
    create_s;
    feed_s;
    run_s;
    verify_s;
    cal_s = (cal0 +. cal1) /. 2.0;
    checks = { checks with failures };
    alloc_words =
      d (fun g -> g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words);
    minor_words = d (fun g -> g.Gc.minor_words);
    promoted_words = d (fun g -> g.Gc.promoted_words);
    minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    pause_s;
    top_heap_words = g1.Gc.top_heap_words;
    replay;
  }

(* Repeat samples of one seed until [seconds] have passed, at least five. *)
let repeat ~seconds w ~seed ~roots =
  let t0 = now_ns () in
  let rec go acc n =
    if n >= 5 && seconds_since t0 >= seconds then List.rev acc
    else go (sample w ~seed ~roots :: acc) (n + 1)
  in
  go [] 0

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

type metric = { m_name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") m_name unit_ value = { m_name; value; unit_; note }

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      Printf.printf "  %-44s %20.6f %-12s %s\n" m.m_name m.value m.unit_ m.note)
    metrics;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (Printf.sprintf "%.17g" m.value) m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " fields)

let report_failures samples =
  List.iteri
    (fun i s -> List.iter (fun f -> Printf.printf "sample %d FAILED: %s\n" i f) s.checks.failures)
    samples

(* Same seed, same simulated results: compare every sample with the first. *)
let deterministic samples =
  match samples with
  | [] -> true
  | first :: rest ->
      List.for_all
        (fun s ->
          let same = s.sim = first.sim in
          if not same then print_endline "DETERMINISM FAILED: simulated results differ between samples";
          same)
        rest

(* ------------------------------------------------------------------ *)
(* End-to-end metrics (--trace 0)                                      *)

let end_to_end (samples : sample list) =
  let first = List.hd samples in
  let s = first.sim in
  let roots = first.roots in
  let med f = median (List.map f samples) in
  let calibrated f = med (fun x -> f x *. nominal_cal_s /. x.cal_s) in
  let run_s = calibrated (fun x -> x.run_s) in
  let n = s.latency_n in
  Printf.printf "raw medians: setup %.4f s, run %.4f s, verify %.4f s, calibration %.4f s\n"
    (med setup_s) (med (fun x -> x.run_s)) (med (fun x -> x.verify_s)) (med (fun x -> x.cal_s));
  [
    metric "setup_s" "s" (calibrated setup_s);
    metric "run_s" "s" run_s;
    metric "verify_s" "s" (calibrated (fun x -> x.verify_s));
    metric "events_per_sec" "1/s" (ratio (float_of_int s.events) run_s);
    metric "alloc_words_per_event" "words/event"
      (med (fun x -> ratio x.alloc_words (float_of_int x.sim.events)));
    metric "peak_heap_mb" "MB" (float_of_int (first.top_heap_words * (Sys.word_size / 8)) /. 1e6);
    metric
      ~note:(Printf.sprintf "p50 %.1f us, n=%d roots" s.p50_us n)
      "root_latency_mean_us" "us" s.mean_us;
    metric
      ~note:(Printf.sprintf "p99 %.1f us, slowest %d of %d roots" s.p99_us (max 1 (n / 100)) n)
      "root_latency_tail_us" "us" s.tail_us;
    metric "messages_per_root" "1/root" (per s.messages roots);
    metric "bytes_per_root" "B/root" (per s.bytes roots);
    metric "events_per_root" "1/root" (per s.events roots);
    metric
      ~note:(Printf.sprintf "gave up %d of %d" s.gave_up roots)
      "committed_share" "ratio" (per s.committed roots);
  ]

(* ------------------------------------------------------------------ *)
(* Layer replay from the traced sample's event stream                  *)

(* Per-call cost of reading the clock twice, subtracted from per-call
   timings. *)
let clock_overhead_ns () =
  let n = 100_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Int64.sub (now_ns ()) (now_ns ())))
  done;
  Int64.to_float (Int64.sub (now_ns ()) t0) /. float_of_int n

(* [Gdo.Directory]: register every catalog object, then one [acquire] per
   [Lock_request] and, at each [Root_commit]/[Root_abort], one [release]
   per object the family acquired. Returns mean ns per acquire and per
   release. *)
let replay_directory (s : replay) =
  let dir = Gdo.Directory.create () in
  List.iter
    (fun oid ->
      Gdo.Directory.register_object dir oid
        ~pages:(Objmodel.Catalog.page_count s.catalog oid)
        ~initial_node:(Objmodel.Oid.to_int oid mod s.node_count))
    (Objmodel.Catalog.oids s.catalog);
  let held = Txn.Txn_id.Table.create 1024 in
  let overhead = clock_overhead_ns () in
  let acq_ns = ref 0.0 and acq_n = ref 0 and rel_ns = ref 0.0 and rel_n = ref 0 in
  let time_call acc count f =
    let t0 = now_ns () in
    f ();
    acc := !acc +. (Int64.to_float (Int64.sub (now_ns ()) t0) -. overhead);
    incr count
  in
  let release family =
    match Txn.Txn_id.Table.find_opt held family with
    | None -> ()
    | Some oids ->
        Txn.Txn_id.Table.remove held family;
        List.iter
          (fun oid ->
            time_call rel_ns rel_n (fun () ->
                ignore (Gdo.Directory.release dir oid ~family ~dirty:[] : _ list)))
          oids
  in
  List.iter
    (fun (e : Dsm.Event.t Sim.Trace.entry) ->
      match e.data with
      | Dsm.Event.Lock_request { oid; family; node; mode } ->
          time_call acq_ns acq_n (fun () ->
              ignore (Gdo.Directory.acquire dir oid ~family ~node ~mode () : _));
          let prev = Option.value ~default:[] (Txn.Txn_id.Table.find_opt held family) in
          if not (List.exists (Objmodel.Oid.equal oid) prev) then
            Txn.Txn_id.Table.replace held family (oid :: prev)
      | Dsm.Event.Root_commit { family; _ } | Dsm.Event.Root_abort { family; _ } ->
          release family
      | _ -> ())
    s.events;
  (ratio !acq_ns (float_of_int !acq_n), ratio !rel_ns (float_of_int !rel_n))

(* [Dsm.Page_store]: for each [Transfer]/[Demand_fetch], [receive] then
   [version] of the pages it moved, on the receiving node's store. Each
   call kind is timed as one batch. Returns mean ns per call of each. *)
let replay_page_store (s : replay) =
  let stores = Array.init s.node_count (fun node -> Dsm.Page_store.create ~node) in
  let calls = ref [] in
  let version = ref 0 in
  List.iter
    (fun (e : Dsm.Event.t Sim.Trace.entry) ->
      match e.data with
      | Dsm.Event.Transfer { oid; node; pages; _ } | Dsm.Event.Demand_fetch { oid; node; pages; _ }
        ->
          let n = min pages (Objmodel.Catalog.page_count s.catalog oid) in
          for page = 0 to n - 1 do
            incr version;
            calls := (stores.(node), oid, page, !version) :: !calls
          done
      | _ -> ())
    s.events;
  let calls = Array.of_list (List.rev !calls) in
  let n = Array.length calls in
  let (), receive_s =
    timed (fun () ->
        Array.iter
          (fun (st, oid, page, version) -> Dsm.Page_store.receive st oid ~page ~version)
          calls)
  in
  let sum = ref 0 in
  let (), version_s =
    timed (fun () ->
        Array.iter
          (fun (st, oid, page, _) -> sum := !sum + Dsm.Page_store.version st oid ~page)
          calls)
  in
  ignore (Sys.opaque_identity !sum);
  (ratio (receive_s *. 1e9) (float_of_int n), ratio (version_s *. 1e9) (float_of_int n))

(* Trace-derived quantities: page movement and summed lock wait. *)
type trace_sums = {
  mutable transfer_pages : int;
  mutable transfer_bytes : int;
  mutable fetches : int;
  mutable fetch_bytes : int;
  mutable lock_wait_us : float;
}

let trace_sums (s : replay) =
  let pending = Hashtbl.create 1024 in
  let r =
    { transfer_pages = 0; transfer_bytes = 0; fetches = 0; fetch_bytes = 0; lock_wait_us = 0.0 }
  in
  List.iter
    (fun (e : Dsm.Event.t Sim.Trace.entry) ->
      match e.data with
      | Dsm.Event.Transfer { pages; bytes; _ } ->
          r.transfer_pages <- r.transfer_pages + pages;
          r.transfer_bytes <- r.transfer_bytes + bytes
      | Dsm.Event.Demand_fetch { bytes; _ } ->
          r.fetches <- r.fetches + 1;
          r.fetch_bytes <- r.fetch_bytes + bytes
      | Dsm.Event.Lock_request { oid; family; _ } -> Hashtbl.replace pending (family, oid) e.time
      | Dsm.Event.Lock_grant { oid; family; _ } -> (
          match Hashtbl.find_opt pending (family, oid) with
          | Some t0 ->
              Hashtbl.remove pending (family, oid);
              r.lock_wait_us <- r.lock_wait_us +. (e.time -. t0)
          | None -> ())
      | Dsm.Event.Lock_refused { oid; family; _ } -> Hashtbl.remove pending (family, oid)
      | _ -> ())
    s.events;
  r

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (--trace 1)                                       *)

(* The wire types that carry traffic on at least one workload. *)
let wire_types =
  Dsm.Wire.
    [
      Acquire_request;
      Grant;
      Refusal;
      Release;
      Gdo_replica;
      Page_request;
      Page_reply;
      Lease_recall;
      Lease_yield;
      Ack;
      Heartbeat;
      Suspect;
      Ship_invoke;
      Ship_reply;
      View_change;
      Escrow_request;
      Escrow_reply;
      Escrow_commit;
      Escrow_reconcile;
      Escrow_recall;
      Escrow_yield;
    ]

let wire_name w = String.map (function '-' -> '_' | c -> c) (Dsm.Wire.to_string w)

let per_layer ~(untraced : sample list) ~(traced : sample list) ~(replay : replay) ~dispatch_ns =
  let first = List.hd traced in
  let s = first.sim in
  let t = s.totals in
  let roots = first.roots in
  let pr n = per n roots in
  let med f = median (List.map f untraced) in
  let events = float_of_int s.events in
  let run_s = med (fun x -> x.run_s) in
  let acquire_ns, release_ns = replay_directory replay in
  let receive_ns, version_ns = replay_page_store replay in
  let ts = trace_sums replay in
  let wire_msgs w =
    List.fold_left (fun acc (w', msgs, _) -> if w' = w then acc + msgs else acc) 0 s.wire
  in
  let escrow_attempts = t.Dsm.Metrics.escrow_reserves + t.Dsm.Metrics.escrow_refusals in
  [
    metric "host.setup_s" "s" (med setup_s);
    metric "host.run_s" "s" run_s;
    metric "host.verify_s" "s" (med (fun x -> x.verify_s));
    metric "host.events_per_sec" "1/s" (ratio events run_s);
    metric "host.calibration_s" "s" (med (fun x -> x.cal_s));
    metric "workload.generate_s" "s" (med (fun x -> x.generate_s));
    metric "runtime.create_s" "s" (med (fun x -> x.create_s));
    metric "runtime.feed_s" "s" (med (fun x -> x.feed_s));
    metric "serializability.check_s" "s" (med (fun x -> x.checks.check_s));
    metric "serializability.escrow_check_s" "s" (med (fun x -> x.checks.escrow_check_s));
    metric "runtime.audit_s" "s" (med (fun x -> x.checks.audit_s));
    metric "engine.scheduled_per_root" "1/root" (pr s.scheduled);
    metric "engine.max_queue" "count" (float_of_int s.max_queue);
    metric "engine.dispatch_ns" "ns" dispatch_ns;
    metric "engine.share" "ratio" (ratio (events *. dispatch_ns /. 1e9) run_s);
    metric "gc.minor_words_per_event" "words/event" (med (fun x -> ratio x.minor_words events));
    metric "gc.promoted_words_per_event" "words/event"
      (med (fun x -> ratio x.promoted_words events));
    metric "gc.minor_collections" "count" (med (fun x -> float_of_int x.minor_collections));
    metric "gc.major_collections" "count" (med (fun x -> float_of_int x.major_collections));
    metric "gc.pause_s" "s" (med (fun x -> x.pause_s));
    metric "txn.local_acquisitions_per_root" "1/root" (pr t.Dsm.Metrics.local_acquisitions);
    metric "txn.global_acquisitions_per_root" "1/root" (pr t.Dsm.Metrics.global_acquisitions);
    metric "txn.upgrades_per_root" "1/root" (pr t.Dsm.Metrics.upgrades);
    metric "txn.deadlock_aborts_per_root" "1/root" (pr t.Dsm.Metrics.deadlock_aborts);
    metric "txn.retries_per_root" "1/root" (pr t.Dsm.Metrics.retries);
    metric "txn.sub_aborts_per_root" "1/root" (pr t.Dsm.Metrics.sub_aborts);
    metric "txn.gave_up_share" "ratio" (pr s.gave_up);
    metric "gdo.acquire_wait_p50_us" "us" s.acquire_p50_us;
    metric "gdo.acquire_wait_p99_us" "us" s.acquire_p99_us;
    metric "gdo.home_lock_ops_per_root" "1/root" (pr s.home_lock_ops);
    metric "gdo.acquire_ns" "ns" acquire_ns;
    metric "gdo.release_ns" "ns" release_ns;
    metric "dsm.transfer_pages_per_root" "1/root" (pr ts.transfer_pages);
    metric "dsm.transfer_bytes_per_root" "B/root" (pr ts.transfer_bytes);
    metric "dsm.demand_fetches_per_root" "1/root" (pr ts.fetches);
    metric "dsm.demand_fetch_bytes_per_root" "B/root" (pr ts.fetch_bytes);
    metric "page_store.receive_ns" "ns" receive_ns;
    metric "page_store.version_ns" "ns" version_ns;
  ]
  @ List.map
      (fun w -> metric ("wire." ^ wire_name w ^ ".messages_per_root") "1/root" (pr (wire_msgs w)))
      wire_types
  @ [
      metric "wire.control_bytes_share" "ratio" (per (s.bytes - s.data_bytes) s.bytes);
      metric "lease.hits_per_root" "1/root" (pr t.Dsm.Metrics.lease_hits);
      metric "lease.recalls_per_root" "1/root" (pr t.Dsm.Metrics.lease_recalls);
      metric "lease.expiries_per_root" "1/root" (pr t.Dsm.Metrics.lease_expiries);
      metric "lease.aborts_per_root" "1/root" (pr t.Dsm.Metrics.lease_aborts);
      metric "method_cache.hit_ratio" "ratio"
        (per t.Dsm.Metrics.cache_hits (t.Dsm.Metrics.cache_hits + t.Dsm.Metrics.cache_misses));
      metric "method_cache.invalidations_per_root" "1/root"
        (pr t.Dsm.Metrics.cache_invalidations);
      metric "escrow.refusal_ratio" "ratio" (per t.Dsm.Metrics.escrow_refusals escrow_attempts);
      metric "escrow.local_commit_share" "ratio"
        (per t.Dsm.Metrics.escrow_local_commits
           (t.Dsm.Metrics.escrow_local_commits + escrow_attempts));
      metric "escrow.reconciles_per_root" "1/root" (pr t.Dsm.Metrics.escrow_reconciles);
      metric "escrow.recalls_per_root" "1/root" (pr t.Dsm.Metrics.escrow_recalls);
      metric "shipping.ship_ratio" "ratio"
        (per t.Dsm.Metrics.ships (t.Dsm.Metrics.ships + t.Dsm.Metrics.ship_declines));
      metric "transport.drops_per_root" "1/root" (pr t.Dsm.Metrics.drops);
      metric "transport.retransmits_per_root" "1/root" (pr t.Dsm.Metrics.retransmits);
      metric "transport.timeouts_per_root" "1/root" (pr t.Dsm.Metrics.timeouts);
      metric "transport.give_ups" "count" (float_of_int t.Dsm.Metrics.give_ups);
      metric "batching.acks_piggybacked_per_root" "1/root" (pr t.Dsm.Metrics.acks_piggybacked);
      metric "batching.releases_coalesced_per_root" "1/root"
        (pr t.Dsm.Metrics.releases_coalesced);
      metric "batching.fetches_aggregated_per_root" "1/root"
        (pr t.Dsm.Metrics.fetches_aggregated);
      metric "membership.quorum_votes" "count" (float_of_int t.Dsm.Metrics.quorum_votes);
      metric "membership.failovers" "count" (float_of_int t.Dsm.Metrics.failovers);
      metric "membership.heartbeats_suppressed_per_root" "1/root"
        (pr t.Dsm.Metrics.heartbeats_suppressed);
      metric "membership.recovery_p99_us" "us" s.recovery_p99_us;
      metric "trace.lock_wait_us_per_root" "us/root" (ratio ts.lock_wait_us (float_of_int roots));
      metric "trace.dropped" "count" (float_of_int replay.dropped);
      metric "trace.overhead_ratio" "ratio"
        (ratio (median (List.map (fun x -> x.run_s) traced)) run_s);
    ]

(* Raw engine dispatch cost from the engine micro-benchmark. *)
let dispatch_ns () =
  let b =
    Experiments.Scale.engine_bench ~dispatch_events:1_000_000 ~dispatch_timers:10_000
      ~fibers:10_000 ~waiters:1_000 ~rounds:1 ()
  in
  match List.find_opt (fun r -> r.Experiments.Scale.component = "dispatch") b.rows with
  | Some r -> ratio 1e9 r.Experiments.Scale.ops_per_sec
  | None -> 0.0

(* ------------------------------------------------------------------ *)
(* Steadiness: root p99 and events per root flat when run length doubles *)

let p99_tolerance = 0.20
let events_tolerance = 0.05

let steady w ~seed ~roots =
  let a = sample w ~seed ~roots and b = sample w ~seed ~roots:(2 * roots) in
  let p99 = ratio b.sim.p99_us a.sim.p99_us in
  let epr = ratio (per b.sim.events b.roots) (per a.sim.events a.roots) in
  let flat =
    Float.abs (p99 -. 1.0) <= p99_tolerance && Float.abs (epr -. 1.0) <= events_tolerance
  in
  Printf.printf "  %-28s roots %6d -> %6d  p99 %10.0f -> %10.0f us (x%.2f)  events/root x%.3f  %s\n%!"
    w.name roots (2 * roots) a.sim.p99_us b.sim.p99_us p99 epr
    (if flat then "flat" else "GROWS");
  (flat, a.checks.failures @ b.checks.failures = [])

let steadiness ~only ~seed =
  print_endline "steadiness: p99 and events/root at N and 2N roots";
  let ok = ref true in
  List.iter
    (fun w ->
      if only = None || only = Some w.name then begin
        let flat, checks = steady w ~seed ~roots:w.roots in
        if not (flat && checks) then ok := false
      end)
    workloads;
  (* The counter-example: the bank preset's own arrival rate saturates. *)
  if only = None || only = Some "bank-escrow" then begin
    let w =
      {
        (bank_escrow_at Workload.Scenarios.bank.Workload.Spec.arrival_mean_us) with
        name = "bank-escrow@preset-rate";
      }
    in
    let flat, _ = steady w ~seed ~roots:10_000 in
    if flat then begin
      print_endline "  the saturated preset rate was not rejected";
      ok := false
    end
    else print_endline "  (rejected, as expected: the preset rate saturates)"
  end;
  Printf.printf "{\"steady\": %b}\n" !ok;
  exit (if !ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let check_steadiness = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  one of stream-64, web-read, bank-escrow, lossy-levers");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  how long to measure");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--steadiness", Arg.Set check_steadiness, " run the steadiness self-check and exit");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  let find name = List.find_opt (fun w -> w.name = name) workloads in
  if !check_steadiness then
    steadiness ~only:(if !workload = "" then None else Some !workload) ~seed:!seed;
  let w =
    match find !workload with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  let roots = w.roots in
  let seed = !seed in
  Printf.printf "workload %s, seed %d, %d roots per sample, %s\n%!" w.name seed roots
    (if !trace = 0 then "end-to-end" else "per-layer");
  if !trace = 0 then begin
    let samples = repeat ~seconds:!seconds w ~seed ~roots in
    report_failures samples;
    let failed = List.length (List.filter (fun s -> s.checks.failures <> []) samples) in
    let same = deterministic samples in
    Printf.printf "%d samples; run_s per sample:%s\n" (List.length samples)
      (String.concat "" (List.map (fun s -> Printf.sprintf " %.3f" s.run_s) samples));
    print_result ~correct:(failed = 0 && same) ~attempted:(List.length samples) ~failed
      (end_to_end samples)
  end
  else begin
    Pauses.start ();
    (* Untraced and traced samples alternate, so that both see the same
       machine speed; only the first traced sample keeps its events. *)
    let t0 = now_ns () in
    let rec pairs acc n =
      if n >= 4 || (n >= 2 && seconds_since t0 >= !seconds) then List.rev acc
      else
        let u = sample ~on_arrival:Pauses.poll w ~seed ~roots in
        let t = sample ~traced:true ~on_arrival:Pauses.poll w ~seed ~roots in
        let t = if n = 0 then t else { t with replay = None } in
        pairs ((u, t) :: acc) (n + 1)
    in
    let untraced, traced = List.split (pairs [] 0) in
    let samples = untraced @ traced in
    report_failures samples;
    let failed = List.length (List.filter (fun s -> s.checks.failures <> []) samples) in
    let same = deterministic samples in
    if !Pauses.lost > 0 then
      Printf.printf "note: %d runtime events lost; gc.pause_s is a lower bound\n" !Pauses.lost;
    let replay = Option.get (List.hd traced).replay in
    Printf.printf "trace: %d events for %d roots, capacity %d\n" (List.length replay.events) roots
      (trace_capacity ~roots);
    let metrics = per_layer ~untraced ~traced ~replay ~dispatch_ns:(dispatch_ns ()) in
    print_result ~correct:(failed = 0 && same) ~attempted:(List.length samples) ~failed metrics
  end
