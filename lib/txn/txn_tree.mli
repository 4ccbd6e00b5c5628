(** Transaction trees and families (Moss-style closed nesting).

    A user-invoked method starts a root transaction; each nested invocation
    starts a sub-transaction whose parent is the invoker. All transactions
    sharing a root form a family. A family ordinarily executes at a single
    site; with function shipping enabled ([Dsm.Shipping]) a sub-transaction
    may execute at a different node than its parent — {!create_child}'s
    [?node] records where.

    The tree also records each transaction's life-cycle status. A
    sub-transaction that finishes successfully {e pre-commits} — its effects
    remain provisional and its locks are inherited by its parent; only root
    commit makes the family's effects durable and its locks available to
    other families. *)

type status =
  | Active
  | Precommitted  (** sub-transaction finished; locks inherited by parent *)
  | Committed  (** root committed: family effects final *)
  | Aborted

type t

val create : unit -> t

val create_root : t -> node:int -> Txn_id.t
(** New root transaction (its own family), executing at [node]. *)

val create_child : ?node:int -> t -> parent:Txn_id.t -> Txn_id.t
(** New sub-transaction of [parent], executing at [node] (default: the
    parent's node — a function-shipped invocation passes the remote
    execution site). @raise Invalid_argument if the parent is not
    [Active]. *)

val parent : t -> Txn_id.t -> Txn_id.t option
(** [None] for roots. *)

val root_of : t -> Txn_id.t -> Txn_id.t
(** The family (root) of a transaction; identity on roots. *)

val node_of : t -> Txn_id.t -> int
(** Site at which the transaction executes (the family's site, unless the
    transaction was function-shipped elsewhere). *)

val depth : t -> Txn_id.t -> int
(** 0 for roots. *)

val status : t -> Txn_id.t -> status
val set_status : t -> Txn_id.t -> status -> unit

val is_root : t -> Txn_id.t -> bool

val same_family : t -> Txn_id.t -> Txn_id.t -> bool

val is_strict_ancestor : t -> ancestor:Txn_id.t -> Txn_id.t -> bool
(** [is_strict_ancestor t ~ancestor x]: is [ancestor] a proper ancestor of
    [x] in the transaction tree? *)

val is_ancestor_or_self : t -> ancestor:Txn_id.t -> Txn_id.t -> bool

val children : t -> Txn_id.t -> Txn_id.t list
(** Direct children, in creation order. *)

val family_size : t -> Txn_id.t -> int
(** Number of transactions in the family of the given root (inclusive). *)

val count : t -> int
(** Total transactions ever created (unaffected by {!forget_family}). *)

val forget_family : t -> Txn_id.t -> unit
(** Drop the records of a completed family — the root and every
    descendant — so long runs need not retain every transaction ever
    created (the runtime's streaming mode). Ids are never reused, so
    forgetting cannot resurrect one; querying a forgotten id afterwards
    raises like any unknown id. *)

val capacity : t -> int
(** Slots in the record ring ({!Txn_id.Slab}): follows the span of live ids,
    so it stays flat over a streaming run that forgets finished families. *)
