(** The cluster routing frontend behind [lcp route]: one TCP endpoint
    speaking the daemon wire protocol, served through the same
    {!Frame_server} as the daemon, forwarding to N backend daemons.

    {2 Placement}

    Compute requests (prove / verify) route by content: the
    key is the backend's own compiled-verifier cache key — scheme name
    plus MD5 of the graph6 payload ({!request_key}) — walked over a
    {!Ring} with bounded-load spill ({!Balancer}). Identical instances
    keep hitting the same daemon's LRU, so a cluster run's total cache
    misses match a single warmed daemon's.

    {2 Resilience}

    Backend health ({!Health}) is driven by a probe loop sending
    {!Wire.Health} every [probe_interval_ms] and by passive forwarding
    failures; a backend is ejected after 3 consecutive failures and
    reinstated after a 1 s cooldown. Each compute request has a budget
    of [1 + retries] attempts with jittered exponential backoff
    ({!Client.Backoff}, seeded by the correlation id), never
    re-trying a backend that already failed the request. Only
    transport failures and typed [Overloaded] sheds retry. With
    [hedge_ms > 0] the first attempt races a second backend after the
    delay; the first reply wins and the loser is discarded by
    correlation id ({!Hedge}).

    {2 Endpoints}

    [Health] / [Metrics_text] / [Trace_export] are answered locally
    (router readiness = at least one backend alive; router Prometheus
    exposition; the router's own trace-ring lane — fetch each process
    separately and join with [lcp trace merge]);
    [Stats] aggregates every live backend;
    [Drain] is refused with [Bad_request] — it is a backend-local
    admin operation. The optional HTTP sidecar serves [/metrics],
    [/healthz] and [/readyz] (503 when no backend is usable). *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port}. *)
  backends : (string * int) list;
  retries : int;  (** extra forwarding attempts after the first *)
  hedge_ms : int;  (** <= 0 disables hedging *)
  probe_interval_ms : int;  (** <= 0 disables the probe thread *)
  http_port : int;  (** < 0 disables the sidecar; 0 picks a port. *)
  log : Obs.Log.t option;
  trace_sample : int;
      (** Head-based trace sampling ({!Obs.Trace.sample}) for requests
          arriving without a wire trace context; <= 0 (default)
          disables. A frame that already carries a context is always
          traced — the head of the call chain decided, and the same
          1-in-N rid hash on client, router and backend keeps their
          decisions aligned. *)
}

val default_config : config
(** 127.0.0.1:7412, no backends (callers must fill them in), 2
    retries, hedging off, 200ms probes, no sidecar, no log. The rest
    is fixed: 64 vnodes per backend, load factor 1.25, a
    5ms-base/200ms-cap backoff between attempts, ejection after 3
    failures with a 1s cooldown. *)

type t

val create : config -> t
(** Bind and listen; raises [Invalid_argument] on an empty backend
    list or negative retries, [Unix.Unix_error] if a port is taken.
    Nothing is accepted (and no probe runs) until {!run}. *)

val port : t -> int
val http_port : t -> int

val run : t -> unit
(** Accept loop; blocks until {!stop}. Starts the probe thread and
    the HTTP sidecar, joins both before returning. *)

val start : t -> Thread.t
val stop : t -> unit

val probe_once : ?now_ns:int -> t -> unit
(** One synchronous health sweep over every backend — what the probe
    thread does each tick, exposed so tests drive the
    eject/cooldown/reinstate cycle deterministically on a virtual
    clock ([?now_ns] threads through to {!Health}). *)

val request_key : Wire.request -> string
(** The routing key of a compute request: {!Wire.request_key}, the
    daemon's own compiled-verifier cache key, which is what yields
    cluster-wide cache affinity. [""] for non-compute requests. *)

type backend_stats = {
  name : string;  (** "host:port" *)
  state : Health.state;
  requests : int;  (** forwarding attempts *)
  errors : int;
  retries : int;
  hedges : int;
  inflight : int;
}

type stats = {
  requests : int;
  retries : int;
  hedges : int;
  hedge_wins : int;
  no_backend : int;
  bad_frames : int;
  connections : int;
  per_backend : backend_stats list;
}

val stats : t -> stats
