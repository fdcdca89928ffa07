(** Blocking client for the verification daemon, and the load
    generator behind [lcp loadgen].

    The client half is deliberately small: connect, send a
    {!Wire.request}, read back a {!Wire.response}. Like the server it
    never lets malformed peer bytes out as exceptions — every call
    returns a [result]. Every call may carry a correlation id, and
    {!call_id} hands back the id the server echoed (or assigned, when
    0 was sent). *)

type t

(** Deterministic jittered exponential backoff — the retry schedule
    shared by {!connect}, the cluster router's forwarding loop and
    [lcp top]'s reconnects. The delay for [(seed, attempt)] is a pure
    function (an integer-hash jitter over an exponential ramp), so
    tests can pin exact values while concurrent retriers with distinct
    seeds still decorrelate. *)
module Backoff : sig
  type t = {
    base_ms : float;  (** nominal first delay *)
    max_ms : float;  (** cap on the nominal (pre-jitter) delay *)
    multiplier : float;  (** per-attempt growth factor *)
    jitter : float;
        (** delays land uniformly in [(1-j) .. (1+j)) x nominal *)
  }

  val default : t
  (** 10ms base, x2 growth, 2s cap, 50% jitter. *)

  val delay_ms : t -> seed:int -> attempt:int -> float
  (** The delay before retry number [attempt] (1-based; values < 1 are
      clamped to 1). Deterministic in [(seed, attempt)]. *)
end

val connect :
  ?host:string ->
  ?retries:int ->
  ?backoff:Backoff.t ->
  ?backoff_seed:int ->
  ?sleep_ms:(float -> unit) ->
  port:int ->
  unit ->
  (t, string) result
(** Default host 127.0.0.1; names are resolved via [getaddrinfo].

    [retries] (default 0) extra attempts follow a failed connect, each
    preceded by a {!Backoff.delay_ms} sleep for attempts [1..retries]
    with [backoff] (default {!Backoff.default}) and [backoff_seed].
    [sleep_ms] is the virtual-clock hook: tests inject a recorder
    instead of the default [Thread.delay] so no wall time passes. *)

val close : t -> unit

val call : t -> Wire.request -> (Wire.response, string) result
(** One request/response round trip (correlation id elided). A
    server-side problem arrives as [Ok (Error_reply _)]; [Error] means
    the transport or framing itself failed. *)

val call_id :
  ?trace:Wire.trace_context ->
  t ->
  id:int ->
  Wire.request ->
  (int * Wire.response, string) result
(** {!call} carrying correlation id [id] (0 = let the server assign
    one); returns the id from the response alongside it. [trace]
    attaches a distributed-tracing context to the request frame. *)

val wire_trace : Obs.Trace.ctx -> Wire.trace_context option
(** The wire form of a local span: [None] for {!Obs.Trace.null_ctx},
    otherwise a context whose [parent_span] is the local span's id —
    so the next hop parents its request span under the span that
    timed this call. *)

(** {1 Load generation} *)

type percentiles = {
  p50_us : float;
  p95_us : float;
  p99_us : float;
  mean_us : float;
  max_us : float;
}

type lat_summary = { count : int; latency : percentiles option }

type report = {
  connections : int;
  requests_per_connection : int;
  batch : int;
      (** Ops per frame; 1 means plain (unbatched) requests. *)
  prove_weight : int;
  verify_weight : int;
  sampled_weight : int;
      (** Sampled-verify ops per mix cycle (the [S] in [P:V:S]). *)
  queries : int;
      (** The scheme's declared per-node query bound
          ([Randomized_scheme.queries]), which sampled ops carry; 0 when
          the scheme has no sampled variant. *)
  scheme : string;
  sizes : int list;
  total_s : float;
  throughput_rps : float;  (** Wire frames per second. *)
  throughput_ops : float;
      (** Request-equivalent operations per second — equals
          [throughput_rps] when [batch = 1], and is the number to
          compare across batch sizes. *)
  ok : int;
  errors : int;
  errors_by_code : (string * int) list;
      (** Non-zero error tallies by wire error code, plus the
          pseudo-codes ["transport"] (connection/framing failures),
          ["unexpected"] (well-formed but semantically wrong
          responses) and ["id_mismatch"] (ops whose frame's reply
          echoed another correlation id — request/response framing
          slipped). Empty on a clean run. *)
  overall : lat_summary;
  prove : lat_summary;
  verify : lat_summary;
  sampled : lat_summary;
      (** Round-trip latency of {!Wire.request.Verify_sampled} ops. *)
  escalations : int;
      (** Sampled replies reporting a full-verify escalation; 0 on a
          valid-proof mix (exact completeness — see
          [Randomized_scheme]). *)
  batch_frames : lat_summary;
      (** Per-frame round-trip latency in batched mode (empty when
          [batch = 1]; [prove]/[verify] are empty in batched mode —
          per-op latency is not observable inside a frame). *)
  server : Wire.server_stats option;
      (** The target's own stats, fetched after the run — shows the
          cache hit rate the workload achieved. *)
  gc_alloc_bytes : float;
      (** Bytes the loadgen process itself allocated during the timed
          run — the client side of the cost ledger, next to the
          server's [lcp_gc_allocated_bytes_total]. *)
  gc_minor : int;  (** Client minor collections during the run. *)
  gc_major : int;  (** Client major collections during the run. *)
}

val loadgen :
  ?host:string ->
  ?batch:int ->
  ?trace_sample:int ->
  port:int ->
  connections:int ->
  requests:int ->
  mix:int * int * int ->
  scheme:string ->
  sizes:int list ->
  unit ->
  (report, string) result
(** Replay a deterministic prove/verify/sampled-verify mix against one
    target, [host]:[port] — a daemon or a router. A setup pass proves
    one cycle graph per listed size (warming the server cache), then
    [connections] threads each send [requests] frames; [mix = (p, v,
    s)] interleaves [p] proves, [v] verifies, then [s] sampled
    verifies per [p + v + s] ops, round-robin over the graphs. An op
    only counts as [ok] if the semantically right response came back
    (a proof, an all-nodes-accept verdict, or an accepting
    {!Wire.response.Sampled_verified}). Sampled ops carry the stored
    valid proof, the scheme's declared query bound, the frame's
    correlation id as the PRG seed, and an empty budget id; their
    escalation count surfaces in the report. A scheme with no sampled
    variant and [s > 0] is an [Error] up front.

    Frame [i] of a connection carries ops [i * batch .. i * batch +
    batch - 1]. With [batch = 1] (the default) it is that op's plain
    request; with [batch > 1] it is a {!Wire.Batch} frame whose graph
    table lists every cycle graph once, and each reply slot is
    classified as the plain response it encodes
    ({!Wire.item_response}) — so [ok], [errors] and [throughput_ops]
    stay op-granular and comparable across batch sizes. Requires
    [batch <= 65535] (the wire's u16 op count). Sampled ops require
    [batch = 1]: the batch op table has no sampled kind.

    Every frame carries a distinct correlation id; a reply echoing any
    other id fails every op in the frame as ["id_mismatch"].

    [trace_sample] (default 0 = off) head-samples 1 in that many
    correlation ids with {!Obs.Trace.sample}: a sampled request gets a
    root [client.request] span in the local ring and its context rides
    the wire, so router and backend spans land in the same trace. *)

val report_json : report -> string
(** The latency summary as one JSON object (the CI artifact). *)

val pp_report : Format.formatter -> report -> unit
