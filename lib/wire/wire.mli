(** The lcp verification-service wire protocol, version 3.

    Length-prefixed binary frames over a byte stream:

    {v
      +-------+---------+---------+--------------------+---------....
      | 'L'   | 'C'     | version | tag                | length (u32,
      | magic byte 0    | (3)     | message type       |  big-endian)
      +-------+---------+---------+--------------------+---------....
      then exactly [length] payload bytes.
    v}

    The 8-byte header is fixed, so a reader can always frame a message
    before interpreting it. Payload fields are fixed-width big-endian
    integers and length-prefixed byte strings; graphs travel as graph6
    text ({!Graph6}). A proof travels as a table by node id: a u32
    count [k], then for each node [0 .. k-1] in order a u32 bit length
    and its bits packed 8 per byte ({!Bits.pack}). The table carries
    no ids, since graph6 nodes are already [0 .. n-1]; a node the proof
    leaves unbound travels as the empty string, and the decoder reads
    the table straight into the dense form of {!Proof.t}.

    Every payload starts with a u64 {e correlation id}: a client may
    pick its own (any 63-bit non-negative value; 0 means "unassigned"
    and the server allocates one), and the server echoes the request's
    id on its response, so one request can be followed across the
    connection thread, the pool domain, the structured log and the
    trace.

    A payload may additionally carry a {e trace context} for
    distributed tracing: bit 63 of the correlation-id word (otherwise
    always zero — ids are 63-bit) flags its presence, and 24 bytes
    follow the id word: the 126-bit trace id as two u64 halves, then
    the sender's span id (the receiver's parent).

    Everything that parses bytes from the peer is {e total}: malformed
    input — bad magic, unknown version or tag, oversized length,
    truncated or trailing bytes (including a truncated or
    out-of-range request id), counts that do not fit the payload —
    yields an [Error] carrying a human-readable reason, never an
    exception. This module is the trust boundary; {!Server} and
    {!Client} only ever feed it untrusted bytes. *)

val protocol_version : int
(** The only version spoken and accepted: 3. *)

val header_bytes : int
(** Size of the fixed frame header: 8. *)

val id_bytes : int
(** Size of the correlation-id payload prefix: 8. *)

val max_payload : int
(** Upper bound on a frame payload (16 MiB); a header announcing more
    is rejected before any payload is read. *)

val rejecting_sample : int list -> int list
(** The first ≤64 entries of a rejecting set: the sample a
    {!response.Partition_verified} or {!response.Sampled_verified}
    reply carries. The cap is part of the wire format — the decoder
    rejects a longer list — so every sender cuts through this. *)

type header = { tag : int; length : int }

type trace_context = { trace_hi : int; trace_lo : int; parent_span : int }
(** Distributed-tracing context carried on the id prefix: the
    126-bit trace id split across two 63-bit halves, plus the sending
    span's id, which the receiver uses as the parent of its own
    request span. All-zero means "unsampled"; senders encode [None]
    instead. *)

(** Typed form of a header failure. [Bad_header] means the framing is
    untrustworthy (bad magic, unsupported version, truncation) and the
    connection must be dropped; [Oversized] means the frame is
    well-formed but announces a payload over {!max_payload} — the
    length is trustworthy, so the peer can drain exactly [length]
    bytes, answer a typed error naming the offending size, and keep
    the connection. *)
type header_error =
  | Bad_header of string
  | Oversized of { tag : int; length : int }

val decode_header : string -> (header, header_error) result
(** Parse the first {!header_bytes} bytes of a frame. Checks magic,
    version (exactly {!protocol_version}) and the {!max_payload}
    bound; the tag is {e not} checked here (the payload decoders own
    that), so a framing layer can skip messages it does not
    understand. *)

val header_error_to_string : header_error -> string

(** {1 Messages} *)

(** One operation inside a {!request.Batch} frame. [graph] and
    [proof] index into the batch's shared graph and proof tables — a
    frame carrying many ops over few distinct payloads ships each
    graph6 string and each proof exactly once, and the ops themselves
    are a few bytes each. The decoder rejects out-of-range indices,
    so a well-formed batch never dangles. *)
type batch_op =
  | Op_prove of { scheme : string; graph : int }
  | Op_verify of { scheme : string; graph : int; proof : int }

type request =
  | Prove of { scheme : string; graph6 : string }
  | Verify of { scheme : string; graph6 : string; proof : Proof.t }
  | Batch of { graphs : string list; proofs : Proof.t list; ops : batch_op list }
      (** Up to 65535 sub-ops behind one header and one round trip.
          The reply is a {!response.Batch_reply} with one
          {!batch_item} per op, in op order; a bad op yields an
          [Item_error] in its slot without failing the frame. *)
  | Verify_partition of {
      scheme : string;
      graph6 : string;
      ids : int array;
      owned : Bits.t;
      proof : Proof.t;
      radius : int;
      shard_index : int;
      shard_count : int;
    }
      (** One shard of a partitioned verification. [graph6] is the
          shard subgraph on local ids [0 .. ns-1]; [ids] maps local ids
          back to original identifiers (strictly increasing — the
          decoder enforces it); [owned] carries one bit per local id
          (1 = this shard owns the node, 0 = radius-[radius] ghost);
          [proof] is the whole-graph proof restricted to the shard and
          rekeyed to local ids. The backend verifies {e owned} nodes
          only and answers {!response.Partition_verified} in original
          numbering. *)
  | Verify_sampled of {
      scheme : string;
      graph6 : string;
      proof : Proof.t;
      seed : int;
      queries : int;
      budget_id : string;
    }
      (** Error-budgeted sampled verification. The server runs the
          scheme's sampled verifier over a [seed]-chosen probe set,
          each probed node reading at most [queries] proof/label cells
          ([queries] is a u16 the decoder requires ≥ 1; [seed] is a
          63-bit non-negative value carried as a u64 — a set sign bit
          is a typed decode error). [budget_id] pins the client's idea
          of the scheme's error budget (e.g. ["eps0.02:q4:m24"]);
          empty defers to the server's default, any other mismatch is
          answered [Bad_request] rather than silently verified under
          a different ε. A sampled rejection escalates to a full
          verify on the server, so the final verdict never has false
          {e rejects}; the reply says whether escalation happened. *)
  | Stats
  | Metrics_text
      (** The telemetry exposition in Prometheus text format v0.0.4 —
          same bytes the HTTP sidecar serves on [/metrics]. *)
  | Health  (** Readiness probe: pool saturation, uptime. *)
  | Drain of { enable : bool }
      (** Backend-admin frame: [enable = true] flips the daemon into
          draining mode — it keeps answering every request but reports
          [ready = false] on {!Health}, so a routing frontend stops
          sending it new work and it can be taken down without
          dropping anything in flight. [enable = false] reinstates
          it. *)
  | Trace_export
      (** Fetch the process's trace ring as Chrome trace-event JSON —
          the same bytes an [--obs-dir] trace spool file holds, served
          over the wire so a merger can collect live processes without
          filesystem access. *)
  | Profile_export
      (** Fetch the process's continuous profile (attribution tree,
          GC telemetry, per-scheme cost accounts) as one JSON object
          — the {!Obs.Profile.export_string} body. Answered inline by
          either process's frame server, even when profiling is off
          (zero-sample document), so a fetcher never needs to know the
          flag. *)

type error_code =
  | Bad_frame  (** Unparseable frame: the connection is out of sync. *)
  | Unsupported_version
  | Unknown_scheme
  | Bad_graph  (** graph6 payload rejected by {!Graph6.decode_res}. *)
  | Bad_request  (** Frame ok, payload malformed for its tag. *)
  | Overloaded  (** Shed by backpressure (queue full); retry later. *)
  | Deadline_exceeded
  | Internal
  | Unavailable
      (** The worker pool is shutting down — unlike {!Overloaded} the
          condition will not clear, so retry {e elsewhere}, not
          later. *)

type server_stats = {
  requests : int;
  cache_hits : int;
  cache_misses : int;
  cache_entries : int;
  overloaded : int;
  deadline_exceeded : int;
  uptime_ms : int;
  metrics_json : string;
      (** {!Obs.Metrics.to_json} when the server runs with metrics on,
          ["{}"] otherwise. *)
}

type health = { ready : bool; pending : int; max_queue : int; uptime_ms : int }
(** [ready] is false when the pool backlog has reached [max_queue]
    (the next compute request would be shed), the server is stopping,
    or the server is draining (see {!request.Drain}); [pending] is the
    live queued + running task count. *)

(** One reply slot of a {!response.Batch_reply}, positionally matching
    the request's op list. On the wire each slot leads with a status
    byte (0 = error, else the op kind), so a reader can tally
    failures without decoding payloads. *)
type batch_item =
  | Item_proved of Proof.t option
  | Item_verified of { accepted : bool; rejecting : int list }
  | Item_error of { code : error_code; message : string }

type response =
  | Proved of Proof.t option
      (** [None]: the prover recognised a no-instance. *)
  | Verified of { accepted : bool; rejecting : int list }
  | Partition_verified of {
      all_accept : bool;
      owned : int;
      rejected : int;
      rejecting : int list;
    }
      (** Verdict summary for one shard's owned nodes: [owned] nodes
          verified, [rejected] of them rejecting, and the first ≤64
          rejecting node ids in {e original} numbering. The decoder
          enforces [all_accept = (rejected = 0)], [rejected <= owned],
          and the 64-entry sample cap. *)
  | Sampled_verified of {
      sampled_accept : bool;
      escalated : bool;
      accepted : bool;
      bits_read : int;
      nodes : int;
      rejecting : int list;
    }
      (** Outcome of a {!request.Verify_sampled}: the probe run's own
          verdict, whether the server escalated to a full verify
          (exactly when the probe run rejected), the final verdict,
          the proof/label bits the sampled run consumed, the number of
          nodes probed, and — when the final verdict rejects — the
          first ≤64 rejecting nodes. The decoder enforces
          [escalated = not sampled_accept], [sampled_accept ⇒
          accepted] (escalation can only {e overturn} rejections) and
          an empty [rejecting] list on acceptance. *)
  | Batch_reply of batch_item list
  | Stats_reply of server_stats
  | Metrics_text_reply of string
  | Health_reply of health
  | Drain_reply of { draining : bool; pending : int }
      (** Acknowledges a {!Drain} toggle: the mode now in force and
          how many tasks are still queued or running. *)
  | Trace_export_reply of string
      (** The trace ring rendered as Chrome trace-event JSON. *)
  | Profile_export_reply of string
      (** The continuous profile as JSON: sample counts, collapsed
          stacks, an embedded speedscope document, GC stats and the
          per-scheme cost table. *)
  | Error_reply of { code : error_code; message : string }

val error_code_to_string : error_code -> string

val item_of_response : response -> batch_item
(** The batch reply slot carrying a prove or verify response or an
    error; any other response becomes an [Internal] item error. *)

val item_response : batch_item -> int * response
(** The inverse: the slot's status byte (0 = error, else the op kind)
    and the plain response its body encodes. *)

(** {1 Codecs}

    Encoders take the correlation [id] (default 0 = unassigned) and an
    optional [trace] context. Encoding raises [Invalid_argument] on a
    negative id, a negative trace field, or a proof bound to a negative
    node or to one past what a frame's proof table can list — those
    are caller bugs, not wire input. Decoders return the id and the
    trace context alongside the message. *)

val encode_request : ?id:int -> ?trace:trace_context -> request -> string
(** A complete frame: header plus payload, sized first and then
    written into one buffer. *)

val encode_response : ?id:int -> ?trace:trace_context -> response -> string

val request_tag : request -> int
val response_tag : response -> int

val request_kind : request -> string
(** The kind's name in logs and metrics: ["prove"], ["verify"],
    ["verify_partition"], ["metrics"], ... — one per tag. *)

val decode_request_payload :
  tag:int -> string -> (int * trace_context option * request, string) result
(** Decode the payload of a frame whose header carried [tag]. Total;
    rejects unknown tags, truncated fields (including a short or
    out-of-range request id and a truncated or out-of-range trace
    context) and trailing bytes. *)

val decode_response_payload :
  tag:int -> string -> (int * trace_context option * response, string) result

val decode_request : string -> (int * trace_context option * request, string) result
(** Decode one complete frame (header and payload, nothing after),
    reading the payload in place. *)

val decode_response :
  string -> (int * trace_context option * response, string) result

(** {1 Compute identity}

    The one place that says what a compute request runs. The daemon
    caches a compiled verifier under {!cache_key}, logs and costs the
    request under its [scheme], and the router places it by
    {!request_key} — the same string, so identical instances keep
    landing on the daemon whose cache holds them. *)

type identity = { scheme : string; image : string }
(** A compute request's scheme and the bytes that name its compiled
    image: the graph6 payload for prove, verify and sampled verify (a
    sampled verify runs on the plain image); for a shard, its subgraph
    bytes plus its local→original id table (two shards with equal
    subgraphs but different id maps are different verification jobs). *)

val identity : request -> identity option
(** [None] for every request that computes nothing, and for an empty
    batch; a batch is named by its first op, run as a plain request. *)

val cache_key : identity -> string
(** The scheme name plus the MD5 of the image bytes. *)

val op_key : string array -> batch_op -> string
(** The key of a batch op over the batch's graph table: the key of the
    plain request the op runs as. *)

val request_key : request -> string
(** {!cache_key} of the request's {!identity}; [""] when it has none. *)

val equal_request : request -> request -> bool
(** Equality of the canonical encodings (id 0, no trace context): the
    round-trip property tests pin [decode (encode m) = m] with it.
    Raises [Invalid_argument] where {!encode_request} does. *)

val equal_response : response -> response -> bool
