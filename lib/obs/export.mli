(** Prometheus text exposition, format version 0.0.4.

    Each [counter] / [gauge] / [histogram] / [window_summary] call adds
    samples to its metric family; {!contents} renders each family as
    one group — the "# HELP" and "# TYPE" preamble, then all of its
    samples — in the order the families first appeared, however the
    calls interleaved. Names
    are sanitised to the Prometheus charset ([[a-zA-Z0-9_:]]) and
    prefixed ["lcp_"]; counters gain the conventional ["_total"]
    suffix. The module reads no global state — the caller hands it the
    values (server counters, {!Window.stats}, a {!Metrics.snapshot}),
    so the wire endpoint, the HTTP sidecar and the bench export all
    share one renderer. *)

type t

val create : unit -> t
val contents : t -> string

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> int -> unit
(** Monotonic counter; the rendered name ends in ["_total"]. *)

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> float -> unit

val window_summary : t -> ?help:string -> string -> Window.stats -> unit
(** A rolling window as a summary: [quantile]-labelled samples for
    p50/p95/p99 plus [_sum] / [_count], all carrying a
    [window="<seconds>s"] label so several horizons of the same metric
    coexist. *)

val metrics_snapshot : t -> Metrics.snapshot -> unit
(** Render a full cumulative registry snapshot (counters, max-gauges,
    histograms). *)

(** {1 Reading it back} *)

val parse_sample : string -> (string * (string * string) list * float) option
(** Parse one exposition line into (name, labels, value); [None] for
    comments, blanks and anything malformed. Used by [lcp top] to
    scrape the server and by the tests to validate output
    line-by-line. *)

val find_sample :
  string -> name:string -> labels:(string * string) list -> float option
(** First sample in a whole exposition text whose name matches and
    whose labels include all of [labels]. *)
