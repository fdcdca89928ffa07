(** Continuous wall-clock profiling: a dedicated sampler thread polls
    every domain's active-span stack (see {!Trace.stack_snapshot}) at
    a configurable rate, folds the observed stacks into a weighted
    attribution tree, and tracks GC/runtime telemetry alongside —
    minor/major collections, promoted words, heap size, and a rolling
    allocation-rate window. A second, exact channel attributes
    per-request CPU time and allocation deltas to the request's scheme
    label via {!account}.

    Everything is off by default. When off, the only residue at an
    instrumented site is a single [bool ref] check ({!Trace.stacks_on}
    inside the [span*] entry points, [!enabled] around {!account}
    bracketing); no thread exists and no memory beyond the empty
    tables is held. When on, the sampler costs one stack walk per
    domain per tick — at the default 97 Hz that is well under 1% of
    one core.

    Sampling weights are statistical (a stack observed at tick t is
    charged 1/hz seconds), so the attribution tree converges on the
    true time split as samples accumulate; 97 Hz is deliberately prime
    to avoid aliasing with millisecond-periodic work. *)

val enabled : bool ref
(** Master switch. Flipped by {!start}/{!stop}; tests may set it
    directly (with {!Trace.stacks_on}) to drive {!sample_now} without
    a sampler thread. *)

val start : ?hz:int -> unit -> unit
(** Enable profiling and spawn the sampler thread at [hz] (default 97,
    clamped to >= 1) polls per second. Idempotent while running. *)

val stop : unit -> unit
(** Stop the sampler thread (joins it, so at most one tick late),
    clear {!Trace.stacks_on} and disable. Accumulated samples and
    scheme accounts survive until {!reset}. *)

val reset : unit -> unit
(** Drop all accumulated samples, scheme accounts and GC baselines. *)

val sample_now : unit -> unit
(** Take one sampling tick synchronously: snapshot every domain's
    active-span stack into the attribution table and update the GC
    telemetry. The sampler thread calls this; tests call it directly
    for deterministic counts. *)

val samples : unit -> int
(** Total sampling ticks taken ([lcp_profile_samples_total]). *)

val stack_samples : unit -> int
(** Non-idle stack observations folded into the attribution tree
    (<= ticks × domains). *)

val account : scheme:string -> cpu_ns:int -> alloc_bytes:float -> unit
(** Attribute one request's measured CPU time and allocation delta to
    [scheme] — the exact (non-sampled) channel, called from the pool
    worker with [Gc.allocated_bytes] bracketing. No-op when disabled. *)

val export_string : unit -> string
(** The full profile as one JSON object — the
    {!Wire.request.Profile_export} reply body:
    [{"process","hz","samples","stack_samples","gc":{...},
    "schemes":[...],"collapsed":"...","speedscope":{...}}].
    Valid (with zero samples) even when profiling is off, so the wire
    endpoint always answers. *)

val exposition : Export.t -> unit
(** Append the GC/runtime telemetry ([lcp_gc_*]: collections,
    promoted words, allocated bytes, heap size, plus a 10 s windowed
    allocation rate when sampling), the profiler meta-counters
    ([lcp_profile_samples_total], [lcp_profile_stack_samples_total])
    and the per-scheme cost families ([lcp_scheme_cpu_ns_total],
    [lcp_scheme_alloc_bytes_total], [lcp_scheme_requests_total],
    labelled by scheme) to a Prometheus exposition. GC telemetry is
    live [Gc.quick_stat] — present and correct even when the sampler
    is off, so dashboards and [lcp top] can always read it. *)
