(** Monotonic timer facade.

    Every timestamp in the repository funnels through this module:
    bench row timings, trace span durations and the busy/idle
    accounting in {!Pool} all read the same CLOCK_MONOTONIC source, so
    they are immune to NTP skew and wall-clock jumps (unlike the
    [Unix.gettimeofday] calls they replace) and mutually comparable. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary (boot-time) epoch. Allocation-free;
    only differences are meaningful. *)

val elapsed_ns : int -> int
(** [elapsed_ns t0] is [now_ns () - t0]. *)

val ns_to_s : int -> float
val ns_to_us : int -> float

