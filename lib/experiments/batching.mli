(** Message combining ({!Dsm.Batching}) off vs on under light interconnect
    faults, as an {!Ab} lever.

    LOTEC's weakness in the paper is message {e count}: it trades bytes
    for many small messages, so a high per-message software cost erodes
    its advantage (figures 6-8). The combining layer attacks exactly that
    term — this lever measures how much of it comes back. A row's
    software-cost replay is [messages * software_cost + bytes * 8 /
    bandwidth], the {!Dsm.Metrics.total_time_us} formula, so rows do not
    carry it. Runs execute under a light drop/jitter fault model on
    purpose: transport acks only exist on a lossy interconnect (and
    fault-free LOTEC demand fetches are zero on the standard workload,
    because the predicted access sets cover the actual ones), so a
    fault-free sweep would have nothing to combine. *)

val default_spec : Workload.Spec.t
(** {!Workload.Scenarios.medium_high}. *)

val default_faults : Sim.Fault.config
(** Light loss: drop 0.03, 30 us jitter, no crash windows, fixed seed. *)

val lever : Ab.lever
(** Lever ["batch"]: OTEC and LOTEC x one point ({!default_spec} under
    {!default_faults}) x modes ["off"] and ["all"]. No gates. *)
