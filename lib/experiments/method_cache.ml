(* The web-sessions preset: tiny hot objects re-read from every node, almost
   no writers. Repeat invocations hit the same (oid, method) pairs at an
   unchanged version vector — exactly what the method cache serves. *)
let default_spec = Workload.Scenarios.web_sessions

(* Lease policy paired with every cache-on (and lease-only) case. Same
   reasoning as the lease sweep's default — the TTL bounds a deferred
   yield well below the makespan — but longer: web runs are read-dominated
   enough that expiry-and-re-grant churn on hot objects, not write stalls,
   is the binding cost. *)
let default_lease = Gdo.Lease.Fixed_ttl { ttl_us = 60_000.0 }

let default_policy = Dsm.Method_cache.Lru { capacity = Dsm.Method_cache.default_capacity }

(* The axis is the request-level read share: [1 - read_fraction] of roots
   hit the writer endpoint (see {!Workload.Spec.root_update_fraction}). The
   web specs make every non-writer method read-only, so this is the whole
   read/write mix. *)
let point ?(spec = default_spec) read_fraction =
  {
    Ab.coords = [ ("read", read_fraction) ];
    spec = { spec with Workload.Spec.root_update_fraction = Some (1.0 -. read_fraction) };
    config = Fun.id;
  }

let hit_rate r =
  let hits = Ab.counter r "cache_hits" in
  let consults = hits + Ab.counter r "cache_misses" in
  if consults = 0 then 0.0 else float_of_int hits /. float_of_int consults

let cached = "cache:" ^ Dsm.Method_cache.policy_to_string default_policy

let max_of = function [] -> None | x :: xs -> Some (List.fold_left Float.max x xs)

let cached_lotec rows =
  List.filter (fun r -> r.Ab.protocol = Dsm.Protocol.Lotec && r.Ab.mode = cached) rows

(* How many times fewer messages the cached row moved than the
   everything-off baseline: 5.0 means 5x fewer. *)
let message_factors rows =
  List.filter_map
    (fun r ->
      if Ab.coord r "read" < 0.95 then None
      else
        Option.map
          (fun b -> float_of_int b.Ab.messages /. float_of_int r.Ab.messages)
          (Ab.baseline_of rows r))
    (cached_lotec rows)

let lever =
  {
    Ab.name = "cache";
    protocols = Dsm.Protocol.all;
    points = List.map (fun r -> point r) [ 0.8; 0.95; 0.99 ];
    modes =
      [
        { Ab.label = "baseline"; apply = Fun.id };
        { label = "lease"; apply = (fun c -> { c with Core.Config.lease = default_lease }) };
        {
          label = cached;
          apply =
            (fun c -> { c with Core.Config.lease = default_lease; method_cache = default_policy });
        };
      ];
    counters =
      (fun m ->
        let t = Dsm.Metrics.totals m in
        [
          ("lease_hits", t.lease_hits);
          ("cache_hits", t.cache_hits);
          ("cache_misses", t.cache_misses);
          ("cache_fills", t.cache_fills);
          ("cache_invalidations", t.cache_invalidations);
        ]);
    gates =
      [
        {
          measure = "best cached-LOTEC hit rate";
          bound = At_least 0.5;
          value = (fun rows -> max_of (List.map hit_rate (cached_lotec rows)));
        };
        {
          measure = "best cached-LOTEC message factor at read >= 0.95";
          bound = At_least 5.0;
          value = (fun rows -> max_of (message_factors rows));
        };
      ];
  }
