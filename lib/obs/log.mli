(** Structured logs: one JSON object per line, mutex-serialised,
    sampled under load.

    The writer takes a flat field list and adds only a monotonic
    [ts_ns] timestamp (comparable with {!Trace} spans) and sampling
    bookkeeping: with [max_per_sec] set, at most that many lines are
    written in any one wall second; excess lines are dropped, counted,
    and the next line that gets through carries a ["dropped_before"]
    count plus a ["dropped_since_ns"] timestamp (the first dropped
    line's clock) so a reader can see the gap — and place it, even
    after merging logs from several processes. A request log therefore
    degrades gracefully into a sample when the service is saturated
    instead of making the log device the bottleneck. *)

type t

type field =
  | Int of int
  | Float of float  (** non-finite values render as [null] *)
  | Str of string
  | Bool of bool

val to_file : ?max_per_sec:int -> string -> t
(** Truncate-and-open [path]. [max_per_sec <= 0] (the default) writes
    every line. *)

val to_stderr : ?max_per_sec:int -> unit -> t

val write : ?now_ns:int -> t -> (string * field) list -> bool
(** Append one line; returns [false] when the line was sampled out (or
    the sink is closed). Lines are flushed immediately — a crash loses
    at most the line being formatted. *)

val close : t -> unit
(** Flush, and close the channel if {!to_file} opened it. Idempotent;
    subsequent {!write}s return [false]. *)
