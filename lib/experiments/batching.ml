(* The standard scenario, under light interconnect faults. The fault model
   matters: without it the transport sends no acks (there is nothing to
   lose), and on this workload LOTEC's predicted access sets cover the
   actual ones, so fault-free demand fetches are zero — ack piggybacking,
   the headline saving, only exists on a lossy interconnect, which is also
   the regime the paper's software-cost argument is about. *)
let default_spec = Workload.Scenarios.medium_high

let default_faults =
  {
    Sim.Fault.seed = 1;
    drop_probability = 0.03;
    duplicate_probability = 0.0;
    delay_jitter_us = 30.0;
    windows = [];
    link_windows = [];
  }

let lever =
  {
    Ab.name = "batch";
    protocols = Dsm.Protocol.[ Otec; Lotec ];
    points =
      [
        {
          Ab.coords = [];
          spec = default_spec;
          config = (fun c -> { c with Core.Config.faults = Some default_faults });
        };
      ];
    modes =
      List.map
        (fun p ->
          {
            Ab.label = Dsm.Batching.to_string p;
            apply = (fun c -> { c with Core.Config.batching = p });
          })
        Dsm.Batching.[ off; all ];
    counters =
      (fun m ->
        let t = Dsm.Metrics.totals m in
        [
          ("riders", Dsm.Metrics.wire_riders_total m);
          ("acks_piggybacked", t.acks_piggybacked);
          ("acks_flushed", t.acks_flushed);
          ("fetches_aggregated", t.fetches_aggregated);
          ("releases_coalesced", t.releases_coalesced);
          ("heartbeats_suppressed", t.heartbeats_suppressed);
          ("retransmits", t.retransmits);
        ]);
    gates = [];
  }
