(** Object identifiers.

    Objects are the unit of locking and consistency maintenance in LOTEC.
    Identifiers are dense non-negative integers assigned by the catalog. *)

type t = private int

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
(** Prints in the paper's style: [O7]. *)

module Set : Set.S with type elt = t

(** Per-object state indexed by [to_int]: one bounds check and one load,
    no hashing. The array grows (by doubling) to cover the largest id set,
    so it is sized by the catalog, never by a sentinel id far beyond it. *)
module Vec : sig
  type oid := t
  type 'a t

  val create : default:'a -> 'a t
  (** Every slot reads [default] until set. *)

  val get : 'a t -> oid -> 'a
  (** [default] for ids never set. *)

  val set : 'a t -> oid -> 'a -> unit

  val iter : (oid -> 'a -> unit) -> 'a t -> unit
  (** Every slot up to the largest id set, ascending, defaults included. *)

  val fold : (oid -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
  (** Like {!iter}, folding from the largest id down, so a fold that conses
      builds an ascending list. *)
end
