(** Random workload generation: catalog plus root-transaction stream.

    Determinism: the same spec and page size produce exactly the same catalog
    and roots. Every root also carries its own seed, so its branch and
    failure draws are independent of cross-family interleaving — which makes
    byte counts comparable when the same workload runs under different
    protocols.

    Recursion preclusion (paper §3.4): the reference graph is generated as a
    DAG — object [i]'s slots only point to objects with larger identifiers —
    so no invocation chain can revisit an object. *)

type root_spec = {
  at : float;  (** absolute submission time, µs *)
  node : int;
  oid : Objmodel.Oid.t;
  meth : int;  (** method index in the target's class ({!Objmodel.Obj_class.find_method}) *)
  seed : int;  (** the root's private random stream *)
}

type t = {
  spec : Spec.t;
  catalog : Objmodel.Catalog.t;
  roots : root_spec list;
      (** {b Contract:} ascending by [at] (ties allowed). Consumers rely on
          it — the runtime's streaming feeder submits roots lazily, pulling
          the next one only when the simulation clock reaches it, and the
          experiment runners compute makespans from the last root's [at].
          {!generate} validates the ordering and raises [Invalid_argument]
          naming the offending index if it is ever violated. *)
}

val generate : Spec.t -> page_size:int -> t
(** @raise Invalid_argument on an invalid spec, or if the generated root
    list violates the ascending-by-[at] contract (a generator bug — see
    [roots]). *)

val method_name : int -> string
(** ["m<i>"] — the name of generated method [i]: every generated class
    declares [m0], [m1], ... in index order. *)
