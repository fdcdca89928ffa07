(** The lcp verification daemon: a TCP service speaking {!Wire} frames
    that amortises CLI-startup, graph-parsing and verifier-compilation
    cost across requests.

    Concurrency layout: the accept loop and one lightweight system
    thread per connection ({!Frame_server}) do IO and framing only;
    all verification work is dispatched onto a shared {!Pool} of
    [jobs] worker domains, so CPU concurrency is bounded regardless of
    connection count.

    Production behaviours, all surfaced as {e typed} wire errors
    rather than hangs or dropped connections:
    - {b backpressure} — when [max_queue] tasks are already pending
      the request is answered [Overloaded] immediately
      ({!Pool.submit_res});
    - {b deadlines} — a request that exceeds [deadline_ms] (measured
      from arrival, so queue wait counts) is answered
      [Deadline_exceeded] at the next checkpoint;
    - {b compiled-verifier cache} — an {!Lru} of {!Simulator.compiled}
      CSR images keyed by (scheme name, digest of the graph6 bytes);
      a hit skips both graph decoding and compilation. Hit/miss
      counters are visible in the [stats] endpoint and, when
      observability is on, as [server.cache_hits] / [server.cache_misses].

    {2 Telemetry}

    Every request carries a correlation id — echoed from the client
    or allocated by the server — stamped on the
    [server.request] / [server.queue_wait] / [server.compute] trace
    spans, the structured log line ([config.log]) and the response, so
    one request's journey across the connection thread and the worker
    domain reads as a unit. Rolling 1s/10s/60s windows (latency
    quantiles, request and error rate, cache hit ratio — always on,
    like the [stats] atomics) feed the Prometheus exposition served as
    a {!Wire.Metrics_text} reply and, when [http_port >= 0], over a
    plain-HTTP sidecar: [/metrics] (text format 0.0.4), [/healthz]
    (liveness) and [/readyz] (readiness — 503 once the pool backlog
    reaches [max_queue]). Requests slower than [slow_ms] bump
    [server.slow_requests] and, with tracing on and [obs_dir] set,
    dump their trace-ring slice to [obs_dir/slow-<id>-<seq>.json]
    ([seq] numbers the slow requests, so a repeated id keeps every
    slice) — the
    directory [lcp serve --obs-dir] also spools its trace lane to.

    The server takes {!Obs.Metrics.guard_reset} for the lifetime of
    its worker pool (released when {!run} returns), so a concurrent
    [Metrics.reset] raises instead of corrupting live shards. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port}. *)
  jobs : int;  (** Worker domains (>= 1). *)
  cache_size : int;  (** Compiled-verifier cache capacity; 0 disables. *)
  deadline_ms : int;  (** Per-request deadline; <= 0 disables. *)
  max_queue : int;  (** Pending-task bound before shedding. *)
  http_port : int;
      (** Telemetry sidecar port; < 0 (default) disables it, 0 picks
          an ephemeral port — read it back with {!http_port}. *)
  slow_ms : int;  (** Slow-request threshold; <= 0 disables. *)
  obs_dir : string option;
      (** Directory for slow-request trace slices; [None] (default)
          counts slow requests but writes no slice. *)
  cache_dir : string;
      (** Persistent compiled-image cache directory ({!Diskcache});
          [""] (default) disables it. With it set, every compile also
          writes the image to disk, and an LRU miss consults the disk
          tier before falling back to decode + compile — so a
          restarted daemon answers its first request for a known
          graph without a compile. *)
  log : Obs.Log.t option;  (** Structured per-request log sink. *)
  trace_sample : int;
      (** Head-based trace sampling: trace 1 in [trace_sample]
          correlation ids (deterministic — {!Obs.Trace.sample} — so
          every process keeps the same rids); <= 0 disables. A wire
          frame that already carries a trace context is always
          honoured regardless of this setting: the head of the call
          chain decided. *)
}

val default_config : config
(** 127.0.0.1:7411, 1 job, cache 128, no deadline, queue bound 256, no
    sidecar, no slow threshold, no disk cache, no log. *)

type t

val create : config -> t
(** Bind and listen (raises [Unix.Unix_error] if the port is taken)
    and spawn the worker pool. No connection is accepted until
    {!run}. *)

val port : t -> int
(** The bound port — the ephemeral one the kernel picked when
    [config.port] was 0. *)

val http_port : t -> int
(** The sidecar's bound port; -1 when [config.http_port < 0]. *)

val run : t -> unit
(** Accept loop; blocks until {!stop}, then shuts the worker pool
    down before returning. Ignores [SIGPIPE] process-wide (a vanished
    peer must surface as a write error, not kill the daemon). *)

val start : t -> Thread.t
(** {!run} on a fresh thread — join it after {!stop} to be sure the
    pool is down (the test suite and embedded uses). *)

val stop : t -> unit
(** Signal shutdown and close the listening sockets; idempotent, safe
    from signal handlers and other threads. In-flight requests still
    complete; the pool is shut down by {!run} as it exits. *)

type stats = {
  requests : int;
  batch_ops : int;  (** Batch sub-operations across all batch frames. *)
  cache_hits : int;
      (** Requests that skipped decode + compile: LRU hits plus disk
          hits. *)
  cache_misses : int;
      (** Every tier missed: the daemon decoded and compiled. A warm
          restart on a populated [cache_dir] reports zero. *)
  cache_entries : int;
  disk_hits : int;  (** Compiled images served from [cache_dir]. *)
  overloaded : int;
  unavailable : int;  (** Requests refused because the pool is stopping. *)
  deadline_exceeded : int;
  bad_frames : int;
  connections : int;
  slow_requests : int;
  partition_shards : int;
      (** {!Wire.request.Verify_partition} frames executed. *)
  partition_reject : int;
      (** Rejecting owned nodes summed across all shards. *)
  sampled_requests : int;
      (** {!Wire.request.Verify_sampled} frames executed. *)
  sampled_escalations : int;
      (** Sampled rejections that escalated to a full verification. *)
  sampled_bits_read : int;
      (** Proof/label bits consumed by sampled runs, summed. *)
}

val stats : t -> stats
(** Live counters (independent of {!Obs} being enabled). *)


