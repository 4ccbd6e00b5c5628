(** Transaction identifiers.

    Every method invocation is a transaction; identifiers are unique across
    the whole simulated system and never reused (a retried root is a new
    transaction). *)

type t = private int

val of_int : int -> t
val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Table : Hashtbl.S with type key = t

(** Per-transaction (or per-family) state indexed by id, for ids assigned
    densely and monotonically and never reused. A power-of-two ring: id [i]
    lives in slot [i mod capacity], so a lookup is one mask, one compare and
    one load, with no hashing and no allocation. The ring doubles only when a
    new id would land on a live one, so its capacity follows the span from
    the oldest live id to the newest, not the number of ids ever assigned: a
    run that removes finished ids keeps it bounded by in-flight work. *)
module Slab : sig
  type id := t
  type 'a t

  val create : dummy:'a -> 'a t
  (** [dummy] fills empty slots; it is never returned. *)

  val get : 'a t -> id -> 'a
  (** @raise Not_found for an id never added or since removed. *)

  val replace : 'a t -> id -> 'a -> unit
  val remove : 'a t -> id -> unit

  val iter : (id -> 'a -> unit) -> 'a t -> unit
  (** Live entries in slot order, which is not id order: callers must not
      let the order escape. *)

  val capacity : 'a t -> int
  (** Current ring size (a power of two). *)
end
