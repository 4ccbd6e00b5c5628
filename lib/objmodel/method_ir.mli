(** A tiny method-body intermediate representation.

    The paper's compiler performs conservative attribute-access analysis over
    real method code; we model method bodies in an IR that exhibits exactly
    the features that make the analysis conservative — data-dependent control
    flow ([If]) and repetition ([Loop]) — plus the nested-transaction source
    of structure: [Invoke], a method call on another object, which at run
    time becomes a sub-transaction.

    Invocation targets are *reference slots*: a class declares how many
    outgoing references its instances carry, and each object instance binds
    its slots to concrete object identifiers. This keeps method bodies
    shareable between instances (as compiled code is) while letting the
    run-time object graph decide which object a sub-transaction touches. *)

type slot = int
(** Index into an instance's reference-slot array. *)

type stmt =
  | Read of Attribute.id
  | Write of Attribute.id
  | Invoke of { slot : slot; meth : int }
      (** Method call on the object bound to [slot] — a sub-transaction.
          [meth] indexes the target class's methods in declaration order
          ({!Obj_class.method_index} resolves a name); {!Catalog.create}
          checks it against the class each instance binds the slot to. *)
  | If of { prob_then : float; then_ : stmt list; else_ : stmt list }
      (** Data-dependent branch. The analysis must assume either side may
          run; at execution time the branch is chosen with probability
          [prob_then] from the transaction's random stream (standing in for
          runtime data values the compiler cannot see). *)
  | Loop of { count : int; body : stmt list }
      (** Definite iteration: the body's accesses repeat [count] times. *)

type commutativity =
  | Non_commuting  (** default: the method needs ordinary exclusive/shared locks *)
  | Increment  (** adds to a counter-like object; commutes with other escrow ops *)
  | Decrement  (** subtracts from a counter-like object; commutes likewise *)
  | Insert
      (** adds an element to a set/bag-like object — modelled as a +1 on the
          object's element count, so it commutes the same way [Increment] does *)
(** Declared commutativity class of a method. Two invocations on the same
    object commute when both are escrow-classed ([Increment]/[Decrement]/
    [Insert]): the final state is independent of their order, so the escrow
    protocol may run them concurrently under delta reservations instead of
    serializing them on an exclusive lock. The declaration is trusted the way
    the paper trusts its compiler analysis — {!Obj_class.define} only checks
    the structural requirements (an updating body, no nested [Invoke]). *)

type t = {
  name : string;
  body : stmt list;
  commutativity : commutativity;
}

val make : name:string -> body:stmt list -> t
(** A [Non_commuting] method. *)

val make_commuting : name:string -> commutativity:commutativity -> body:stmt list -> t
(** A method with a declared commutativity class; see {!Obj_class.define}
    for the structural requirements it must then meet. *)

val commutes : t -> bool
(** [commutes m] is true iff [m]'s class is not [Non_commuting]. *)

val escrow_delta : t -> int
(** Signed unit delta the method applies to its object's escrowed quantity:
    [+1] for [Increment]/[Insert], [-1] for [Decrement], [0] otherwise. *)

val pp_commutativity : Format.formatter -> commutativity -> unit

val max_slot : t -> int
(** Largest reference slot mentioned anywhere in the body, or [-1] if none.
    Used to validate instances against classes. *)

val statement_count : t -> int
(** Total statements, counting nested blocks (loop bodies once) — used as the
    method's CPU-cost measure. *)

(** Callbacks consumed by {!interp}. *)
type 'a handler = {
  on_read : Attribute.id -> unit;
  on_write : Attribute.id -> unit;
  on_invoke : slot -> int -> unit;
  choose : float -> bool;  (** branch oracle: [choose p] is the If outcome *)
}

val interp : t -> 'a handler -> unit
(** Execute the body sequentially, resolving [If] with [choose] and calling
    the callbacks in program order. [Invoke] is delegated entirely to
    [on_invoke] (which, in the runtime, starts the sub-transaction and blocks
    until it finishes). *)

val pp : Format.formatter -> t -> unit
(** An [Invoke] prints as [invoke s<slot>.m<index>]: the target's method
    name depends on the instance the slot is bound to. *)
