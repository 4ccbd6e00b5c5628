(** Deterministic, splittable pseudo-random number generator.

    Based on splitmix64. Every source of randomness in the repository goes
    through this module so that simulations and workloads are exactly
    reproducible from a single integer seed. *)

type t

val create : seed:int -> t
(** [create ~seed] makes an independent generator from [seed]. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of
    subsequent draws from [t]. Used to give each workload component its own
    stream. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound); [bound] must be > 0. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range [lo, hi]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct integers from
    [0, n). Requires [k <= n]. Result is in random order: the first [k]
    entries of {!shuffle} on [0, n), with the same [n - 1] draws. Costs
    O(k × n) time and O(k) space: meant for [k] of at most a few dozen
    (reference slots per object). For a larger sample, {!shuffle} an
    array of [0, n), which is O(n). *)

val exponential : t -> mean:float -> float
(** Exponential variate with the given mean (inter-arrival times). *)

val geometric : t -> p:float -> int
(** Number of failures before first success. Total: [p] is clamped to
    [[1e-12, 1]] (NaN degenerates to 1, i.e. always 0), the result is
    clamped to [[0, max_int]], and exactly one draw is consumed for every
    input — a malformed [p] can neither raise nor shift the stream. *)
