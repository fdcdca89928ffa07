(** The wire endpoint shared by the verification daemon ({!Server}) and
    the cluster router ({!Router}).

    It owns everything between the socket and a decoded request: the
    listening sockets (wire port and optional HTTP sidecar), the
    accept loop ([TCP_NODELAY] on every accepted socket, one system
    thread per connection), header and payload reads with typed
    framing errors, correlation-id allocation, the trace context, the
    rolling window's common slots, the per-request log line, the
    [bad_frames] / [connections] / [requests] counters and a minimal
    plain-HTTP/1.0 telemetry sidecar (one GET per connection, no
    keep-alive: enough for a Prometheus scraper, a Kubernetes probe or
    [curl]).

    Framing errors: a header that cannot be trusted gets one
    [Bad_frame] reply ([Unsupported_version] when the magic is right)
    and the connection closes; a header announcing more than
    {!Wire.max_payload} gets its payload drained and a [Bad_request]
    naming the size, and the connection stays; an undecodable payload
    gets [Bad_request]. Each counts as a bad frame.

    The telemetry frames are answered here for every owner:
    [Metrics_text] with the owner's {!service.metrics_text} (the bytes
    [/metrics] serves), [Trace_export] with this process's trace ring
    and [Profile_export] with its profile. The owner supplies one
    {!service} to {!run}: the handler from any other decoded request to
    its response, plus its own log fields, window slots and sidecar
    paths. *)

type t

val create :
  name:string ->
  host:string ->
  port:int ->
  http_port:int ->
  trace_sample:int ->
  log:Obs.Log.t option ->
  unit ->
  t
(** Bind and listen; raises [Unix.Unix_error] if a port is taken.
    Nothing is accepted until {!run}. [name] (["server"] or
    ["router"]) prefixes the request span ([name ^ ".request"]) and
    the exported families; [port] 0 picks an ephemeral port, read it
    back with {!port}; [http_port] < 0 disables the sidecar, 0 picks a
    port; [trace_sample] head-samples 1 in N requests that arrive
    without a wire trace context ({!Obs.Trace.sample}; <= 0
    disables); [log] is the per-request log sink. *)

val port : t -> int
val http_port : t -> int
(** The sidecar's bound port; -1 when it is disabled. *)

val stopping : t -> bool

val window : t -> Obs.Window.t
(** Latency in µs plus counter slots: requests, error replies, ops
    (batch sub-ops counted singly), then two of the owner's,
    {!w_first_extra} and the one after it. *)

val w_first_extra : int

val requests : t -> int
(** Requests decoded and handled. *)

val bad_frames : t -> int
val connections : t -> int

val uptime_ms : t -> int
(** Milliseconds since {!create}. *)

val windows : int list
(** The rolling windows every exposition reports: 1 s, 10 s, 60 s. *)

val export : t -> Obs.Export.t -> unit
(** The families every endpoint exposes under its [name] prefix:
    [requests], [bad_frames], [connections], [uptime_seconds], and per
    window the [request_us] summary, [request_rate], [op_rate] and
    [error_rate]. *)

val fresh_rid : t -> int
(** A locally allocated correlation id, never 0. *)

val child_span : ?parent:int -> Obs.Trace.ctx -> Obs.Trace.ctx
(** A fresh span in the same trace, under span [parent] (default: the
    given span itself); the null context stays null, so untraced
    requests cost nothing. *)

(** One request as the handler sees it. *)
type 'a ctx = {
  rid : int;  (** The client's correlation id, or a {!fresh_rid}. *)
  arrival_ns : int;
  trace : Obs.Trace.ctx;
      (** The request span's identity: the wire context when one
          arrived, else a head-sampled one; null when unsampled. *)
  local : 'a;  (** The owner's per-request state. *)
}

type 'a service = {
  fresh : Obs.Trace.ctx -> Wire.request -> 'a;
      (** Per-request state for {!ctx.local}. *)
  handle : 'a ctx -> Wire.request -> Wire.response;
      (** Never sees [Metrics_text], [Trace_export] or [Profile_export]. *)
  log_fields : 'a ctx -> Wire.request -> (string * Obs.Log.field) list;
      (** Logged between the common [rid], [rid_hex], [req] and the
          common [latency_us], [outcome]. *)
  finish : 'a ctx -> Wire.request -> Wire.response -> latency_ns:int -> bool;
      (** The owner's bookkeeping once the response is known, after the
          common window slots and before the log line; returns whether
          a traced request's log line names its trace id. *)
  metrics_text : unit -> string;
      (** The [Metrics_text] reply and the sidecar's [/metrics] body. *)
  http : string -> string option;
      (** Sidecar paths beyond [/metrics] and [/healthz]: a complete
          HTTP response (see {!http_text}), or [None] for a 404. *)
}

val http_text : ready:bool -> string -> string
(** A [text/plain] response, 200 when [ready] and 503 otherwise — the
    shape of a readiness probe. *)

val err : Wire.error_code -> ('a, unit, string, Wire.response) format4 -> 'a
(** [err code fmt ...] is an [Error_reply] with a formatted message. *)

val run : t -> 'a service -> unit
(** Serve until {!stop}: the HTTP sidecar thread, then the accept loop;
    joins the sidecar before returning. Ignores [SIGPIPE]
    process-wide (a vanished peer must surface as a write error, not
    kill the process). *)

val stop : t -> unit
(** Close the listening sockets; idempotent, safe from signal handlers
    and other threads. Open connections finish their current request. *)
