(** The method-result cache (see {!Dsm.Method_cache}) against two
    baselines on the web-serving workloads, as an {!Ab} lever.

    For each protocol and request-level read share, the same workload runs
    three ways: ["baseline"] (leases and cache off — the paper's plain
    protocol), ["lease"] (read leases on), and ["cache:lru"] (leases
    {e and} the method-result cache on; the cache requires the lease as
    its invalidation signal, see {!Core.Config}).

    The lease does the message-elimination heavy lifting — a cache hit was
    already a zero-message acquisition under ["lease"]. What the cache adds
    on top is skipping the method body entirely: no local page reads, no
    per-statement CPU, no lock-table churn — visible in completion time
    and in the hit-rate gate rather than in messages. Serializability
    (checked on every row) is what pins "a hit is indistinguishable from
    re-execution". *)

val default_spec : Workload.Spec.t
(** {!Workload.Scenarios.web_sessions}: tiny hot objects re-read from every
    node. [root_update_fraction] is set per point. *)

val default_lease : Gdo.Lease.policy
(** The [Fixed_ttl] policy paired with every lease-on mode. *)

val default_policy : Dsm.Method_cache.policy
(** LRU at {!Dsm.Method_cache.default_capacity}. *)

val point : ?spec:Workload.Spec.t -> float -> Ab.point
(** The point at this request-level read share (axis ["read"]): [spec]
    (default {!default_spec}) with [root_update_fraction = Some (1 -
    read)]. *)

val hit_rate : Ab.row -> float
(** [cache_hits / (cache_hits + cache_misses)], 0 when the cache was never
    consulted. *)

val lever : Ab.lever
(** Lever ["cache"]: all four protocols x read shares 0.8, 0.95, 0.99 x
    modes ["baseline"], ["lease"] and ["cache:lru"]. Gates, over the
    cached LOTEC rows: the best hit rate is at least 0.5, and the best
    message factor (baseline messages / cached messages) at a read share
    of at least 0.95 is at least 5. *)
