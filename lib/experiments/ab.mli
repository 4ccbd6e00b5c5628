(** One A/B harness for the lever sweeps.

    The paper's evaluation (§5) has one shape: run the same workload under
    two configurations and compare bytes, messages and time. A {!lever}
    declares that shape for one optional subsystem — its axis points, its
    modes (the first is the baseline), its counters and its gates — and
    this module runs it, checks every row, and reports, serialises and
    gates the result. The levers themselves live in [Lease],
    [Method_cache], [Batching], [Function_shipping] and [Escrow].

    Every row passes {!check_invariants}; the committed history is also
    checked for serializability, and escrow runs for a clean escrow-ledger
    replay, inside {!Runner.execute}. *)

type point = {
  coords : (string * float) list;  (** axis values, e.g. [[("skew", 1.5)]] *)
  spec : Workload.Spec.t;  (** the workload at this point *)
  config : Core.Config.t -> Core.Config.t;  (** applied before the mode's *)
}

type mode = {
  label : string;
  apply : Core.Config.t -> Core.Config.t;  (** e.g. turn the lever on *)
}

type row = {
  lever : string;
  protocol : Dsm.Protocol.t;
  point : (string * float) list;
  mode : string;
  committed : int;
  aborted : int;
  messages : int;
  bytes : int;
  completion_us : float;
  counters : (string * int) list;  (** the lever's own counters, in order *)
}

type bound = At_least of float | At_most of float

type gate = {
  measure : string;  (** what [value] measures, for the verdict line *)
  bound : bound;  (** inclusive *)
  value : row list -> float option;  (** [None]: the sweep has no gate row *)
}

type lever = {
  name : string;  (** the [ab] subcommand's LEVER and the BENCH_<name>.json stem *)
  protocols : Dsm.Protocol.t list;  (** swept when the caller names none *)
  points : point list;
  modes : mode list;  (** non-empty; the head is every point's baseline *)
  counters : Dsm.Metrics.t -> (string * int) list;
  gates : gate list;
}

val check_invariants : Core.Config.t -> submitted:int -> Dsm.Metrics.t -> unit
(** The checks every row passes: every submitted root committed or
    aborted; the wire ledger reconciles exactly with the network ledger
    ([wire_*_total = total_*]); and each subsystem the config leaves off —
    leases, the method cache, batching, shipping, escrow — recorded no
    activity.
    @raise Failure naming the first violated check. *)

val execute : lever -> Dsm.Protocol.t -> point -> mode -> Runner.run * row
(** Generate the point's workload, run it under [mode.apply (point.config
    Core.Config.default)] and check the row.
    @raise Failure naming the lever, protocol, point and mode on any
    violated invariant. *)

val run : lever -> Dsm.Protocol.t -> point -> mode -> row
(** [snd (execute ...)]. *)

val sweep : ?protocols:Dsm.Protocol.t list -> lever -> row list
(** Every protocol x point x mode, in that nesting order. [protocols]
    defaults to the lever's. *)

val map_spec : (Workload.Spec.t -> Workload.Spec.t) -> lever -> lever
(** Rewrite every point's workload (e.g. a seed or root-count override). *)

val mode : lever -> string -> mode
(** The lever's mode with this label.
    @raise Not_found if none. *)

val baseline_of : row list -> row -> row option
(** The first row of [rows] with the same lever, protocol and point — in
    a {!sweep}'s order, the baseline — or [None] when that row is in the
    argument's own mode (a baseline has no baseline). *)

val ratio : (row -> float) -> baseline:row -> row -> float
(** [f row /. f baseline]; may be non-finite. *)

val counter : row -> string -> int
(** @raise Not_found if the lever has no such counter. *)

val coord : row -> string -> float
(** @raise Not_found if the point has no such axis. *)

val best : by:(row -> 'a) -> row list -> row option
(** The first row with the greatest [by]. *)

val evaluate : lever -> row list -> (string, string) result list
(** One verdict per gate of the lever, in order: [Ok] with the measured
    value, or [Error] when the value misses its bound or the sweep has no
    gate row ("no gate row"). *)

val pp_report : lever -> Format.formatter -> row list -> unit
(** The sweep as a table (non-baseline rows show their change against the
    baseline) followed by the gate verdicts. *)

val to_json : row list -> string
(** The sweep as a JSON array, one object per row: [lever], [protocol],
    [point], [mode], [committed], [aborted], [messages], [bytes],
    [completion_us], [vs_baseline] (the row's messages, bytes and
    completion over its baseline's; [null] for a baseline row) and
    [counters]. A non-finite ratio is written as [null]. *)
