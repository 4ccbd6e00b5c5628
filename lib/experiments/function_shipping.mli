(** Function shipping versus data shipping ({!Dsm.Shipping}), as an {!Ab}
    lever.

    LOTEC always moves pages to the invoking site. This lever measures
    what the per-call cost model buys on a locality-skewed nesting
    workload — multi-page objects homed on single nodes, invoked mostly
    from elsewhere — by running every point twice: ["data-ship"] (shipping
    off, the baseline) and ["shipping"], across protocols, locality skews
    and per-message software costs (the model's σ tracks the link).
    Serializability (checked on every row) is what pins "a shipped child
    is indistinguishable from a local one". *)

val default_spec : skew:float -> Workload.Spec.t
(** The locality-skewed nesting preset: 48 objects of 3–6 pages over 8
    nodes, methods covering most of their object, deep nesting
    ([invoke_probability] 0.75), root traffic concentrated by [skew]. *)

val default_params : Dsm.Shipping.params

val point : float -> float -> Ab.point
(** [point skew software_us]: {!default_spec} at [skew] (axis ["skew"])
    over a link whose per-message software cost is [software_us] (axis
    ["sw_us"]). *)

val headline : Ab.row list -> (Ab.row * Ab.row) option
(** [(baseline, shipping)] for LOTEC at the strongest positive skew and
    the cheapest messaging in the rows — the least favourable σ, so the
    gate is won on bytes, not on an inflated per-message charge. [None] if
    the rows hold no such pair. *)

val lever : Ab.lever
(** Lever ["ship"]: all four protocols x skews 0 and 1.5 x software costs
    20 and 60 µs x modes ["data-ship"] and ["shipping"]. Gates on the
    {!headline} pair: bytes fall by at least 30% and the completion ratio
    is at most 1.02. *)
