(* Hand-written tests name a root's method; the runtime takes its index. *)
let submit rt ~at ~node ~oid ~meth ~seed =
  Core.Runtime.submit rt ~at ~node ~oid ~seed
    ~meth:(Objmodel.Catalog.method_index (Core.Runtime.catalog rt) oid meth)
