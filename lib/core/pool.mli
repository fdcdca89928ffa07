(** A small fixed-size domain pool (stdlib [Domain] + [Mutex] /
    [Condition]; no external dependencies).

    The verification engine is embarrassingly parallel — per-node
    verifier runs and per-sample soundness probes share only immutable
    data (CSR image, instance, proof) — so all this pool provides is
    fan-out/join: submit thunks, wait for quiescence. Workers are real
    domains; keep pools short-lived and sized at most
    {!default_jobs} (oversubscribing domains degrades OCaml 5
    performance).

    When observability is enabled the pool records the queue-depth
    high-water mark ([pool.queue_depth_max]), per-worker busy/idle
    nanoseconds ([pool.busy_ns] / [pool.idle_ns], sharded per domain)
    and one trace span per executed task on the worker's timeline.
    These are scheduling-dependent, so {!Obs.Metrics.deterministic}
    excludes them from worker-count-invariant snapshots. *)

type t

val create : int -> t
(** [create jobs] spawns [jobs >= 1] worker domains that sleep on a
    condition variable until work arrives. *)

val size : t -> int

val pending : t -> int
(** Tasks queued or running right now — the saturation signal behind
    the server's readiness probe ([pending < max_queue] means a new
    request would still be accepted). *)

(** Why a bounded submit was declined. [Queue_full] is transient —
    backpressure that clears as workers drain; [Shutting_down] is
    terminal for this pool. The server maps them to distinct wire
    errors ([Overloaded] vs [Unavailable]) so clients know whether to
    retry here or go elsewhere. When both conditions hold,
    [Shutting_down] wins. *)
type decline = Queue_full | Shutting_down

val submit_res :
  ?max_pending:int -> t -> (unit -> unit) -> (unit, decline) result
(** Enqueue a task, optionally bounded: declines — instead of
    raising or blocking — with [Error Shutting_down] when the pool has
    been shut down, or [Error Queue_full] when [max_pending] is given
    and [pending] (queued + running) tasks are already in flight. This
    is the server's load-shedding primitive. [max_pending = 0] rejects
    every task. *)

val shutdown : t -> unit
(** Drain outstanding work, then join all worker domains. Idempotent. *)

val run : jobs:int -> (t option -> 'a) -> 'a
(** Scoped pool: [run ~jobs f] calls [f None] when [jobs <= 1]
    (sequential — no domains are ever spawned) and otherwise
    [f (Some pool)] with a fresh [jobs]-worker pool that is shut down
    when [f] returns or raises. *)

val parallel_for : t -> chunks:int -> n:int -> (int -> int -> int -> unit) -> unit
(** [parallel_for pool ~chunks ~n body] splits [0 .. n-1] into at most
    [chunks] contiguous ranges, submits [body chunk_index lo hi] for
    each (half-open [lo, hi)), and waits for all of them; the first
    exception a task raised is re-raised once every task has finished.
    Each chunk index is used by exactly one task, so per-chunk scratch
    is race-free. Raises [Invalid_argument] after {!shutdown}. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [--jobs 0] resolves to
    on the command line. *)
