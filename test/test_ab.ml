(* The A/B harness: every invariant check rejects a violating ledger, the
   JSON writer never emits a non-finite number, and each lever's gates
   pass exactly at their threshold, fail just past it and fail when the
   sweep has no gate row. *)

module Ab = Experiments.Ab

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let fails_with sub f =
  match f () with
  | () -> Alcotest.failf "expected Failure mentioning %S" sub
  | exception Failure msg ->
      if not (contains msg sub) then Alcotest.failf "Failure %S does not mention %S" msg sub

(* ---------- invariant checks ---------- *)

(* One committed root, no traffic: passes every check. *)
let clean () =
  let m = Dsm.Metrics.create () in
  Dsm.Metrics.incr_roots_committed m;
  m

let check ?(config = Core.Config.default) m = Ab.check_invariants config ~submitted:1 m

let test_clean_ledger_passes () = check (clean ())

let test_root_accounting () =
  fails_with "root accounting" (fun () -> check (Dsm.Metrics.create ()))

let test_wire_messages () =
  let m = clean () in
  Dsm.Metrics.record_wire m ~mtype:Dsm.Wire.Grant ~bytes:64;
  fails_with "wire messages" (fun () -> check m)

let test_wire_bytes () =
  let m = clean () in
  Dsm.Metrics.record_message m ~oid:(Objmodel.Oid.of_int 1) ~kind:Sim.Network.Control ~bytes:64;
  Dsm.Metrics.record_wire m ~mtype:Dsm.Wire.Grant ~bytes:65;
  fails_with "wire bytes" (fun () -> check m)

(* Each subsystem: its counters must be zero while the config leaves it
   off, and may count once the config turns it on. *)
let off_counters subsystem bump on () =
  let m = clean () in
  bump m;
  fails_with (subsystem ^ " counters nonzero") (fun () -> check m);
  check ~config:(on Core.Config.default) m

let test_lease_off =
  off_counters "lease" Dsm.Metrics.incr_lease_grants (fun c ->
      { c with Core.Config.lease = Experiments.Lease.default_policy })

let test_cache_off =
  off_counters "method-cache" Dsm.Metrics.incr_cache_hits (fun c ->
      { c with Core.Config.method_cache = Experiments.Method_cache.default_policy })

let test_batching_off =
  off_counters "batching"
    (fun m -> Dsm.Metrics.add_acks_piggybacked m 1)
    (fun c -> { c with Core.Config.batching = Dsm.Batching.all })

let test_shipping_off =
  off_counters "shipping" Dsm.Metrics.incr_ships (fun c ->
      { c with Core.Config.shipping = Dsm.Shipping.On Dsm.Shipping.default_params })

let test_escrow_off =
  off_counters "escrow" Dsm.Metrics.incr_escrow_reserves (fun c ->
      { c with Core.Config.escrow = Dsm.Escrow.On Dsm.Escrow.default_params })

(* ---------- synthetic rows ---------- *)

let row ?(protocol = Dsm.Protocol.Lotec) ?(point = []) ?(messages = 100) ?(bytes = 1000)
    ?(completion_us = 100.0) ?(counters = []) lever mode =
  {
    Ab.lever;
    protocol;
    point;
    mode;
    committed = 10;
    aborted = 0;
    messages;
    bytes;
    completion_us;
    counters;
  }

(* ---------- JSON ---------- *)

let test_json_zero_messages () =
  let base = row ~messages:0 ~bytes:0 "cache" "baseline" in
  let on = row ~messages:0 ~bytes:0 ~counters:[ ("cache_hits", 3) ] "cache" "cache:lru" in
  let json = Ab.to_json [ base; on ] in
  Alcotest.(check bool) "no inf" false (contains json "inf");
  Alcotest.(check bool) "no nan" false (contains json "nan");
  Alcotest.(check bool) "zero-message ratio is null" true
    (contains json "\"vs_baseline\": {\"messages\": null, \"bytes\": null");
  Alcotest.(check bool) "counters written" true (contains json "\"counters\": {\"cache_hits\": 3}")

let test_json_baseline_is_null () =
  let base = row ~point:[ ("skew", 1.2) ] "escrow" "exclusive" in
  let on = row ~point:[ ("skew", 1.2) ] ~completion_us:50.0 "escrow" "escrow" in
  let lines = String.split_on_char '\n' (Ab.to_json [ base; on ]) in
  Alcotest.(check bool) "baseline row: null" true
    (contains (List.nth lines 1) "\"vs_baseline\": null");
  Alcotest.(check bool) "escrow row: its ratio" true
    (contains (List.nth lines 2) "\"completion_us\": 0.5000}")

(* ---------- gates ---------- *)

let verdicts lever rows = List.map Result.is_ok (Ab.evaluate lever rows)

let no_gate_row lever rows =
  List.iter
    (function
      | Ok v -> Alcotest.failf "gate passed without a gate row: %s" v
      | Error e ->
          if not (contains e "no gate row") then Alcotest.failf "unexpected verdict %S" e)
    (Ab.evaluate lever rows)

let cache_rows ~hits ~misses ~cached_messages =
  let point = [ ("read", 0.99) ] in
  let counters h m =
    [
      ("lease_hits", 0); ("cache_hits", h); ("cache_misses", m); ("cache_fills", 0);
      ("cache_invalidations", 0);
    ]
  in
  [
    row ~point ~messages:500 ~counters:(counters 0 0) "cache" "baseline";
    row ~point ~messages:cached_messages ~counters:(counters hits misses) "cache" "cache:lru";
  ]

let test_cache_gates () =
  let lever = Experiments.Method_cache.lever in
  Alcotest.(check (list bool)) "at both thresholds" [ true; true ]
    (verdicts lever (cache_rows ~hits:1 ~misses:1 ~cached_messages:100));
  Alcotest.(check (list bool)) "hit rate just below" [ false; true ]
    (verdicts lever (cache_rows ~hits:49 ~misses:51 ~cached_messages:100));
  Alcotest.(check (list bool)) "message factor just below" [ true; false ]
    (verdicts lever (cache_rows ~hits:1 ~misses:1 ~cached_messages:101));
  Alcotest.(check (list bool)) "zero-message cached row passes the factor" [ true; true ]
    (verdicts lever (cache_rows ~hits:1 ~misses:1 ~cached_messages:0));
  no_gate_row lever
    (List.map
       (fun (r : Ab.row) -> { r with protocol = Dsm.Protocol.Otec })
       (cache_rows ~hits:1 ~misses:1 ~cached_messages:100))

(* Around the gate pair (skew 1.5, sw 20): a costlier-messaging pair and a
   uniform-skew pair that would both fail, to pin the gate to its row. *)
let ship_rows ~bytes ~completion_us =
  let pair point ~bytes ~completion_us =
    [
      row ~point "ship" "data-ship";
      row ~point ~bytes ~completion_us "ship" "shipping";
    ]
  in
  pair [ ("skew", 0.0); ("sw_us", 20.0) ] ~bytes:2000 ~completion_us:200.0
  @ pair [ ("skew", 1.5); ("sw_us", 20.0) ] ~bytes ~completion_us
  @ pair [ ("skew", 1.5); ("sw_us", 60.0) ] ~bytes:2000 ~completion_us:200.0

let test_ship_gates () =
  let lever = Experiments.Function_shipping.lever in
  Alcotest.(check (list bool)) "at both thresholds" [ true; true ]
    (verdicts lever (ship_rows ~bytes:700 ~completion_us:102.0));
  Alcotest.(check (list bool)) "bytes just short" [ false; true ]
    (verdicts lever (ship_rows ~bytes:701 ~completion_us:102.0));
  Alcotest.(check (list bool)) "time just over" [ true; false ]
    (verdicts lever (ship_rows ~bytes:700 ~completion_us:102.1));
  no_gate_row lever
    (List.filter
       (fun r -> Ab.coord r "skew" = 0.0)
       (ship_rows ~bytes:700 ~completion_us:102.0))

let escrow_rows ~completion_us =
  let pair skew ~completion_us =
    [
      row ~point:[ ("skew", skew) ] "escrow" "exclusive";
      row ~point:[ ("skew", skew) ] ~completion_us "escrow" "escrow";
    ]
  in
  pair 0.6 ~completion_us:100.0 @ pair 1.2 ~completion_us

let test_escrow_gate () =
  let lever = Experiments.Escrow.lever in
  Alcotest.(check (list bool)) "at the threshold" [ true ]
    (verdicts lever (escrow_rows ~completion_us:75.0));
  Alcotest.(check (list bool)) "just short" [ false ]
    (verdicts lever (escrow_rows ~completion_us:75.1));
  no_gate_row lever
    (List.filter (fun (r : Ab.row) -> r.mode = "exclusive") (escrow_rows ~completion_us:75.0))

let tests =
  [
    ( "ab",
      [
        Alcotest.test_case "clean ledger passes" `Quick test_clean_ledger_passes;
        Alcotest.test_case "root accounting" `Quick test_root_accounting;
        Alcotest.test_case "wire messages reconcile" `Quick test_wire_messages;
        Alcotest.test_case "wire bytes reconcile" `Quick test_wire_bytes;
        Alcotest.test_case "lease off: zero counters" `Quick test_lease_off;
        Alcotest.test_case "cache off: zero counters" `Quick test_cache_off;
        Alcotest.test_case "batching off: zero counters" `Quick test_batching_off;
        Alcotest.test_case "shipping off: zero counters" `Quick test_shipping_off;
        Alcotest.test_case "escrow off: zero counters" `Quick test_escrow_off;
        Alcotest.test_case "json zero-message row" `Quick test_json_zero_messages;
        Alcotest.test_case "json baseline is null" `Quick test_json_baseline_is_null;
        Alcotest.test_case "cache gates" `Quick test_cache_gates;
        Alcotest.test_case "ship gates" `Quick test_ship_gates;
        Alcotest.test_case "escrow gate" `Quick test_escrow_gate;
      ] );
  ]
