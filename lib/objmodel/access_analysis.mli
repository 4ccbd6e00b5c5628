(** Conservative attribute-access analysis — "the compiler".

    LOTEC's page-transfer optimisation rests on the compiler predicting, for
    each method, which attributes the method *may* read or write. The
    prediction must be conservative: whatever control path execution takes,
    every attribute actually accessed must appear in the predicted set
    (predicted ⊇ actual). We compute this by unioning accesses over both
    branches of every [If] and treating loop bodies as executing at least
    once in the summary.

    The result is a per-method summary in both attribute terms and, given a
    layout, page terms — the latter is what the LOTEC protocol consumes. *)

type summary = {
  read_attrs : Attribute.id list;  (** ascending, deduped; includes writes *)
  write_attrs : Attribute.id list;  (** ascending, deduped *)
  invoked : (Method_ir.slot * int) list;
      (** reference slots (with method indices) the method may invoke on,
          ascending — drives the optional prefetch extension *)
  updates : bool;  (** true iff [write_attrs] is non-empty: lock mode W *)
}

val analyse : Method_ir.t -> summary

type page_summary = {
  access_pages : int list;  (** pages any predicted access (R or W) touches *)
  write_pages : int list;  (** pages predicted writes touch *)
}

val pages : Layout.t -> summary -> page_summary

val pp_summary : Format.formatter -> summary -> unit
