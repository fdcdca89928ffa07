(** Rolling-window telemetry: a ring of one-second slices over a log₂
    histogram and a caller-defined block of counters, answering "what
    happened in the last 1 s / 10 s / 60 s" without resetting the
    cumulative {!Metrics} registry.

    A window is an explicit value owned by its recorder — typically
    one per service endpoint — not a globally-gated registry entry:
    the {!Metrics} "one flag check per record site" contract is about
    the per-node engine hot path, whereas windows sit on per-request
    paths where one [Mutex] round trip is noise. Every entry point
    takes an optional [?now_ns] so tests can drive a virtual clock
    through bucket rotation deterministically. *)

type t

val create : ?horizon:int -> ?counters:int -> unit -> t
(** [create ~horizon ~counters ()] covers queries up to [horizon]
    seconds back (default 60) and carries [counters] auxiliary counter
    slots (default 0). Allocates [horizon + 1] slices so the slot
    being recycled for the current second never pollutes a full
    [horizon]-second query. Raises [Invalid_argument] if [horizon < 1]
    or [counters < 0]. *)

val observe : ?now_ns:int -> t -> int -> unit
(** Record one histogram observation (e.g. a latency in µs) into the
    current second's slice. *)

val incr : ?now_ns:int -> t -> int -> unit
(** [incr t c] bumps auxiliary counter slot [c] in the current
    second's slice. Raises [Invalid_argument] if [c] is outside the
    [counters] block declared at {!create}. *)

val add : ?now_ns:int -> t -> int -> int -> unit
(** [add t c v] — {!incr} by [v]. *)

type stats = {
  seconds : int;  (** the window actually used (clamped to horizon) *)
  count : int;  (** observations in the window *)
  sum : int;
  max : int;
  rate : float;  (** [count /. seconds] *)
  p50 : int;
  p95 : int;
  p99 : int;
      (** Quantiles reported as the upper edge [2^b - 1] of the log₂
          bucket holding the ceil(q·count)-th smallest observation —
          exact to the bucket, never under-reporting within it; 0 when
          the window is empty. *)
  counters : int array;  (** auxiliary counters summed over the window *)
}

val stats : ?now_ns:int -> ?seconds:int -> t -> stats
(** Merge the slices of the last [seconds] (default 10, clamped to
    [1, horizon]) seconds, including the current partial one. *)

val bucket_of : int -> int
(** The log₂ bucket a value lands in — bucket 0 for [v <= 0], else
    the bit length of [v] (shared with {!Metrics}; exposed for the
    oracle tests). *)

val bucket_upper : int -> int
(** Upper edge of a bucket: [2^b - 1], 0 for bucket 0. *)
