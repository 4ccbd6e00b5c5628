(** Read leases (see {!Gdo.Lease}) off vs on, as an {!Ab} lever.

    For each protocol and each read-heaviness level, the same workload runs
    once with leases off and once per lease policy. The lever's headline
    counter is [home_lock_ops] ({!Dsm.Metrics.home_lock_ops}: global
    acquisitions + upgrades + release batches + recall/yield traffic). On
    read-dominated workloads repeat read acquisitions are absorbed by the
    local lease caches, so the home-node figure drops sharply; on
    write-heavy workloads recalls claw the saving back — which is the
    trade-off the sweep quantifies. *)

val default_spec : Workload.Spec.t
(** A high-contention workload (few objects, default cluster) whose roots
    revisit the same objects from every node — the access pattern leases
    are built for. [read_only_method_fraction] is set per point. *)

val default_policy : Gdo.Lease.policy
(** [Fixed_ttl] whose TTL bounds a recalling write's worst-case stall well
    below the run length while outliving any one family. *)

val default_adaptive : Gdo.Lease.policy
(** [Adaptive] that leases only observed read-dominated objects: neutral on
    mixed workloads, near-[Fixed_ttl] savings on read-heavy ones. *)

val point : ?spec:Workload.Spec.t -> float -> Ab.point
(** The point at this [read_only_method_fraction] (axis ["read"]) of
    [spec] (default {!default_spec}). *)

val lever : Ab.lever
(** Lever ["lease"]: all four protocols x read fractions 0.5, 0.8, 0.95 x
    modes ["off"] (the baseline), ["ttl"] ({!default_policy}) and
    ["adaptive"] ({!default_adaptive}). No gates. *)
