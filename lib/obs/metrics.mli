(** Domain-safe metrics registry: counters, max-gauges and
    log₂-bucketed histograms.

    {2 Shard / merge design}

    Every recording site writes into a {e per-domain shard} — one flat
    [int array] slab per domain, reached through [Domain.DLS] — so the
    hot path under {!Pool.parallel_for} is race-free without a single
    atomic operation and allocation-free after the shard's first use.
    Shards are merged only when {!snapshot} is called: counters and
    histogram slots sum across shards, max-gauges take the maximum.
    Because every merge operator is commutative and associative, a
    snapshot taken at a quiescent point is independent of how the work
    was split over workers — the property the test suite pins down by
    comparing snapshots at jobs ∈ {1, 4}.

    {2 Cost when disabled}

    [enabled] is a single mutable flag; every record function checks it
    first and returns immediately, so an instrumented hot loop pays one
    load-and-branch per record site. The smoke bench with observability
    off is required (and measured) to stay within noise of the
    uninstrumented engine.

    Metric handles are plain slot indices into the slab; registration
    is idempotent per name and normally happens once, at module
    initialisation of the instrumented library. *)

val enabled : bool ref
(** Master switch, off by default. Flip via {!Obs.enable} /
    {!Obs.disable} rather than directly, so tracing and metrics stay
    coherent. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Register (or look up) a summing counter. Raises [Invalid_argument]
    if [name] exists with a different kind. *)

val gauge_max : string -> gauge
(** A gauge merged by [max] — records high-water marks (queue depth,
    largest ball). *)

val histogram : string -> histogram
(** A log₂-bucketed histogram: bucket 0 counts zero values, bucket
    [b ≥ 1] counts values in [2^(b-1), 2^b). Count, sum and max ride
    along. *)

val incr : counter -> unit
val add : counter -> int -> unit
val observe_max : gauge -> int -> unit
val observe : histogram -> int -> unit

val reset : unit -> unit
(** Zero every shard.

    {b Quiescence contract}: call only when no domain can be recording
    — between bench rows, between tests — never while a worker pool is
    live. A concurrent recorder would race the zeroing and leave sums
    silently corrupted. Long-lived pool owners enforce this with
    {!guard_reset}: the server takes the guard when it spawns its pool
    and releases it only after the pool has been joined, so a [reset]
    during service raises [Invalid_argument] instead of corrupting the
    registry. ([lcp serve] itself never calls [reset] after
    startup.) *)

val guard_reset : string -> unit
(** Block {!reset} (it raises [Invalid_argument] carrying [reason])
    until the matching {!unguard_reset}. Guards nest. *)

val unguard_reset : unit -> unit

val external_counter : string -> (unit -> int) -> unit
(** Register a read-only counter whose value is owned elsewhere and
    sampled at {!snapshot} time (e.g. [trace.dropped] from the trace
    ring). Unaffected by {!reset}; idempotent per name. *)

(** {1 Snapshots} *)

type hist = {
  count : int;
  sum : int;
  max : int;
  buckets : (int * int) list;  (** non-empty (bucket index, count) *)
}

type value = Count of int | Max of int | Hist of hist
type snapshot = (string * value) list  (** sorted by metric name *)

val snapshot : unit -> snapshot
(** Merge all shards. Take it at a quiescent point: the reader does not
    synchronise with concurrently-recording domains. *)

val deterministic : snapshot -> snapshot
(** Drop metrics whose value depends on timing or worker count: names
    suffixed [_ns] (accumulated durations) and prefixed [pool.]
    (scheduling-dependent). What remains must be identical for any
    [--jobs] value on the same workload. *)

val count : snapshot -> string -> int
(** Value of a counter (or a gauge/histogram-count), 0 if absent. *)

val max_value : snapshot -> string -> int
(** Max of a gauge or histogram, 0 if absent. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable table, one metric per line. *)

val to_json : snapshot -> string
(** One JSON object: counters/gauges as numbers, histograms as
    [{"count":..,"sum":..,"max":..,"buckets":[[b,n],..]}]. *)
