(** Clock and exact order statistics for the benchmark.

    Every duration the benchmark reports is read from one monotonic clock
    (the [bechamel.monotonic_clock] stub) and summarised with exact
    nearest-rank percentiles over every sample — never from log-bucketed
    histograms, whose edges are 26% apart. *)

val now_ns : unit -> int64
(** Monotonic time in nanoseconds (arbitrary epoch). *)

val ms_between : int64 -> int64 -> float
(** [ms_between t0 t1] is [t1 - t0] in milliseconds. *)

val percentile : float array -> int -> float
(** [percentile samples p] is the nearest-rank [p]-th percentile
    ([1 <= p <= 100]): the smallest sample [x] such that at least
    [p]% of the samples are [<= x].  Selects in expected linear time on a
    copy; [samples] is left untouched.
    @raise Invalid_argument on an empty array or [p] out of range. *)

val median : float array -> float
(** [percentile samples 50]. *)

val sliced_percentile : float array -> int -> float
(** [sliced_percentile samples p] cuts [samples], in the order they were
    taken, into seven equal consecutive slices and returns the median of
    the slices' nearest-rank [p]-th percentiles.  A short
    stall of the machine slows a burst of consecutive samples: it moves
    one slice's tail and not the median of seven.  With fewer than 100
    samples a slice, it is [percentile samples p].
    @raise Invalid_argument as {!percentile}. *)

val mean : float array -> float
(** Arithmetic mean; 0 on an empty array. *)
