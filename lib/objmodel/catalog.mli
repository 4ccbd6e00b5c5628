(** The catalog of object instances — the static shape of the shared store.

    Each instance names its class and binds the class's reference slots to
    concrete objects. The paper precludes mutually recursive inter-object
    invocations; we enforce this statically by requiring the reference graph
    to be acyclic ({!validate_acyclic}), which guarantees no invocation chain
    can revisit an object. *)

type instance = {
  oid : Oid.t;
  cls : Obj_class.t;  (** must be compiled *)
  refs : Oid.t array;  (** slot bindings; length = class [ref_slots] *)
}

type t

val create : instance list -> t
(** Instances are indexed by oid in an array sized to the largest oid, so
    {!find} is one bounds check and one load; ids need not be dense.
    @raise Invalid_argument on duplicate oids, wrong [refs] length, a
    reference to an unknown object, an uncompiled class, or an [Invoke]
    whose method index is out of range for the class its slot is bound
    to. *)

val find : t -> Oid.t -> instance
(** @raise Not_found *)

val size : t -> int
(** Number of instances. *)

val oids : t -> Oid.t list
(** Ascending. *)

val page_count : t -> Oid.t -> int
(** Pages object [oid] spans. *)

val layout : t -> Oid.t -> Layout.t

val find_method : t -> Oid.t -> int -> Obj_class.compiled_method
(** Compiled method of the object's class, by declaration-order index.
    @raise Not_found *)

val method_index : t -> Oid.t -> string -> int
(** Index of the named method of the object's class. @raise Not_found *)

val resolve_slot : t -> Oid.t -> Method_ir.slot -> Oid.t
(** Object bound to the reference slot. *)

val validate_acyclic : t -> (unit, Oid.t list) result
(** [Ok ()] if the reference graph is a DAG; [Error cycle] gives one cycle
    (as a list of oids) otherwise. *)

val max_invocation_depth : t -> int
(** Longest reference-graph path + 1: an upper bound on transaction-tree
    depth. Only meaningful on acyclic catalogs; raises [Invalid_argument] on
    cyclic ones. *)

val total_pages : t -> int
