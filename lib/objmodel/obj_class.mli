(** Class definitions and their compiled form.

    A class bundles attributes and methods. "Compiling" a class fixes the
    attribute layout for a page size and precomputes, per method, the
    conservative access summary in page terms plus the lock-acquisition and
    lock-release bracketing the paper's compiler inserts (represented here by
    the runtime consulting these summaries at method entry/exit). *)

type t

type compiled_method = {
  ir : Method_ir.t;
  summary : Access_analysis.summary;
  page_summary : Access_analysis.page_summary;
  cpu_statements : int;  (** statement count, used as execution cost *)
  index : int;  (** position in the class's declaration order *)
}

val define :
  name:string -> attrs:Attribute.t array -> methods:Method_ir.t list -> ref_slots:int -> t
(** Declare a class. [ref_slots] is the number of outgoing reference slots
    instances carry; every [Invoke] in every method must use a slot below it.
    Methods declared with a non-trivial {!Method_ir.commutativity} must be
    self-contained updates: a body that writes and contains no [Invoke].
    @raise Invalid_argument on duplicate method names, an [Invoke] slot out
    of range, or a commutative method that is read-only or nests an
    [Invoke]. *)

val compile : ?layout:Layout.t -> page_size:int -> t -> t
(** Fix the layout and compute method summaries. Idempotent. [layout], when
    given, must be [Layout.create ~page_size] of the class's attributes: it
    is shared instead of rebuilt, so classes of one shape hold one layout.
    @raise Invalid_argument if its page size or attribute count differs. *)

val name : t -> string
val attrs : t -> Attribute.t array
val ref_slots : t -> int

val layout : t -> Layout.t
(** @raise Invalid_argument if the class has not been compiled. *)

val page_count : t -> int
(** Pages an instance spans. @raise Invalid_argument if not compiled. *)

val find_method : t -> int -> compiled_method
(** The method at a declaration-order index: one bounds check and one load.
    @raise Not_found if the index is out of range.
    @raise Invalid_argument if the class has not been compiled. *)

val method_index : t -> string -> int
(** Declaration-order index of the named method, for callers that start
    from a name (the CLI, hand-written catalogs); a scan over the names.
    @raise Not_found if the method does not exist. *)

val method_count : t -> int

val methods : t -> compiled_method list
val method_names : t -> string list

val pp : Format.formatter -> t -> unit
