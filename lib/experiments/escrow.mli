(** Escrow commit versus exclusive locking ({!Dsm.Escrow}), as an {!Ab}
    lever.

    The bank workload hammers a handful of hot accounts with declared-
    commutative unit deposits and withdrawals. Under the baseline protocols
    every one of them serializes on the account's exclusive object lock;
    with escrow delta locks they commute, and with quota delegation most of
    them commit locally with zero messages. The lever runs every point
    twice — ["exclusive"] (escrow off, the baseline) and ["escrow"] —
    across protocols and access skews. Every escrow row also replays the
    escrow op log within bounds (inside {!Runner.execute}). *)

val default_spec : skew:float -> Workload.Spec.t
(** {!Workload.Scenarios.bank} with the given [access_skew]. *)

val default_params : Dsm.Escrow.params

val point : float -> Ab.point
(** {!default_spec} at this skew (axis ["skew"]). *)

val headline : Ab.row list -> (Ab.row * Ab.row) option
(** [(exclusive, escrow)] for LOTEC at the strongest skew in the rows —
    the hottest hot-account fight, where coordination avoidance has to
    show. [None] if the rows hold no such pair. *)

val lever : Ab.lever
(** Lever ["escrow"]: all four protocols x skews 0.6 and 1.2 x modes
    ["exclusive"] and ["escrow"]. Gate on the {!headline} pair: completion
    falls by at least 25%. *)
