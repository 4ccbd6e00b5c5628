(** Per-site lock table for nested O2PL — the local halves of the paper's
    Algorithms 4.1 (LocalLockAcquisition) and 4.3 (LocalLockRelease).

    The locally cached portion of a GDO entry is the list of transactions
    from the family currently holding the object's lock. This table manages
    that cached state for every family executing at one site:

    - which families hold an object's global lock here, and in what mode;
    - within a family, which transactions hold and which retain the lock;
    - intra-family waiters.

    Lock-disposition rules implemented (paper §4.1):
    + a transaction may acquire a lock if no conflicting holder exists and
      every retainer is one of its ancestors;
    + on pre-commit, the parent inherits and retains all of the child's held
      and retained locks;
    + on abort, held/retained locks are released, except those also retained
      by an ancestor, who continues to retain them;
    + on root commit, everything is released (globally, by the caller).

    The permissive ancestor-hold rule (needed by the optimistic
    pre-acquisition extension, and matching the paper's second alternative
    for recursive invocations) is built in: holders that are ancestors of the
    requester never conflict with it. *)

type t

(** Outcome of a local acquisition attempt. *)
type outcome =
  | Granted
  | Queued  (** conflicting intra-family holder; the wake callback fires on grant *)
  | Not_cached  (** this family holds nothing on the object: go to the GDO *)
  | Needs_upgrade
      (** the family's global lock is Read but Write was requested: an
          upgrade must be negotiated with the GDO *)

val create : Txn_tree.t -> t

val acquire :
  t -> Objmodel.Oid.t -> txn:Txn_id.t -> mode:Lock.mode -> wake:(unit -> unit) -> outcome
(** Attempt local acquisition for [txn]'s family. On [Granted], the holder
    list is updated. On [Queued], [wake] fires when the lock is later granted
    (the holder list is updated before the callback runs). On [Not_cached] /
    [Needs_upgrade], nothing is recorded: the caller must go global and then
    call {!install_grant} / {!upgrade_granted}. *)

val install_grant : t -> Objmodel.Oid.t -> txn:Txn_id.t -> mode:Lock.mode -> unit
(** Record a fresh global grant for [txn]'s family: creates the cached entry
    with [txn] as sole holder. *)

val upgrade_granted : t -> Objmodel.Oid.t -> txn:Txn_id.t -> unit
(** Record a successful global Read→Write upgrade; [txn] becomes a Write
    holder. *)

val family_mode : t -> Objmodel.Oid.t -> family:Txn_id.t -> Lock.mode option
(** Mode of the family's cached global lock on the object, if any. *)

val held_mode : t -> Objmodel.Oid.t -> txn:Txn_id.t -> Lock.mode option
(** Mode in which [txn] itself currently holds the object, if at all. *)

val retainers : t -> Objmodel.Oid.t -> family:Txn_id.t -> (Txn_id.t * Lock.mode) list
(** Transactions of the family retaining (not holding) the object's lock,
    with the mode each retains — the ancestors consulted by the
    acquisition rule. *)

val precommit : t -> Txn_id.t -> unit
(** Child pre-commit: every lock [txn] holds or retains moves to its parent
    as a retained lock; intra-family waiters that become grantable are woken.
    @raise Invalid_argument on a root transaction. *)

val abort : t -> Txn_id.t -> to_release:(Objmodel.Oid.t -> unit) -> unit
(** Abort disposition for [txn]'s locks. For each object [txn] held or
    retained: if an ancestor retains it, the ancestor keeps it; otherwise, if
    the family no longer has any holder, retainer, or waiter on the object,
    the cached entry is dropped and [to_release] is called (the caller
    releases the lock globally), in the order the family's grants were
    installed. Waiters that become grantable are woken. *)

val root_release : t -> root:Txn_id.t -> Objmodel.Oid.t list
(** Root commit (or root abort, after undo): drop every cached entry of the
    family and return the objects whose global locks must be released,
    paired with nothing — dirty-page data is the caller's concern. *)

val objects_of_family : t -> family:Txn_id.t -> Objmodel.Oid.t list
(** Objects on which the family currently holds a cached global lock. *)

val object_count : t -> int
(** Objects some family currently caches here. An object's entry goes with
    its last family's, so this returns to 0 once every family has released. *)

val family_capacity : t -> int
(** Slots in the per-family index ring ({!Txn_id.Slab}). *)
