(** Transactional method-result cache over read leases.

    A repeat {e read-only} invocation at a node that already executed the
    same method on the same object — at the same page versions — need not
    execute at all: its outcome (the read log it would produce) is already
    known. This module caches that outcome per node, keyed by
    [(oid, method, version vector of the predicted read set)], in the style
    of Pfeifer & Lockemann's transactional method caching. The runtime
    consults it before lock acquisition, {e only} when the node holds a
    valid read lease on the object ([Gdo.Lease.Cache]): the lease pins the
    node's view of the object between recalls, which is exactly the
    invalidation signal the cache needs. A hit is served with zero messages
    and zero local page reads, and is indistinguishable from re-execution
    at the cached version — the committed history stays serializable
    because the hit registers as an ordinary lease-backed read, subject to
    the same commit-time validation and recall deferral.

    Invalidation is driven from the lease layer
    ([Gdo.Lease.Cache.set_on_invalidate]): lease recall, lease expiry and
    epoch-superseding re-grants each wipe the object's entries, and a crash
    wipes a node's whole cache with its lease cache. Version advance is
    additionally caught lazily: a {!find} whose version vector differs from
    the cached one drops the entry.

    The cache is policy-gated and {!off} is inert: with the policy off the
    runtime is byte-identical to the cache-free protocol (golden-tested). *)

type policy =
  | Off  (** never cache: byte-identical to the pre-cache runtime *)
  | Lru of { capacity : int }
      (** cache up to [capacity] results per node, evicting the least
          recently used entry *)

val default_capacity : int
(** Capacity used by the short policy spellings ("on"/"lru"): 256. *)

val off : policy

val policy_enabled : policy -> bool
(** False only for {!Off}. *)

val validate_policy : policy -> (unit, string) result
(** Reject non-positive capacities. *)

val policy_of_string : string -> (policy, string) result
(** Parse ["off"]/["none"], ["on"]/["lru"] (default capacity) or
    ["lru:<capacity>"]; [Error] names the valid set. *)

val policy_to_string : policy -> string
(** ["off"] or ["lru"]; the capacity is not round-tripped (see {!pp_policy}). *)

val pp_policy : Format.formatter -> policy -> unit
(** Display form including parameters, e.g. ["lru(256)"]. *)

(** {1 Per-node cache} *)

type t

val create : policy -> t
(** Empty cache; with {!Off} every operation is a cheap no-op. *)

val enabled : t -> bool

val find :
  t -> oid:Objmodel.Oid.t -> meth:int -> versions:int array -> (int * int) list option
(** The cached read log [(page, version)] of method [meth] (its index in the
    object's class, below 2{^16}) on [oid], when an entry
    exists whose version vector equals [versions] (the current versions of
    the method's predicted read-set pages, in page order). A key hit at
    {e different} versions drops the stale entry and misses — the lazy
    version-advance invalidation. The caller must only trust a hit while
    the node's read lease on [oid] is valid. *)

val install :
  t ->
  oid:Objmodel.Oid.t ->
  meth:int ->
  versions:int array ->
  reads:(int * int) list ->
  bool
(** Record an execution's read log. False when an identical entry (same
    versions) is already cached — the caller should not count a fill.
    Evicts the least-recently-used entry at capacity. *)

val invalidate_object : t -> Objmodel.Oid.t -> int
(** Drop every entry of the object (all methods, all versions); returns the
    number dropped. Driven by the lease layer's recall/eviction hooks. *)

val clear : t -> int
(** Drop everything (node crash); returns the number dropped. *)

val entry_count : t -> int
