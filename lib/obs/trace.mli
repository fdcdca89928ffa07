(** Structured tracing into a preallocated ring buffer, exported as
    Chrome trace-event JSON ([chrome://tracing] / Perfetto).

    Events are recorded into parallel arrays indexed by an atomic
    cursor: recording is lock-free, allocation-free (event names must
    be preexisting strings) and safe from any domain — each event
    claims a distinct slot, and once the ring wraps the oldest events
    are overwritten (check {!dropped}). Timestamps come from
    {!Clock.now_ns} and are exported in microseconds relative to the
    moment tracing was enabled.

    When [enabled] is false every entry point is a single
    load-and-branch; [span f] degenerates to [f ()]. Hot loops that
    would have to build a closure should guard on [!enabled] at the
    call site — see [Simulator.run_verifier]. *)

val enabled : bool ref
(** Master switch, off by default; prefer {!Obs.enable}. *)

(** {1 Distributed-tracing identity} *)

type ctx = { t_hi : int; t_lo : int; span : int; parent : int }
(** The tracing identity an event carries: the 126-bit trace id as two
    63-bit halves, the event's own span id, and the span it nests
    under (0 = root). {!null_ctx} (all zero) marks an untraced event
    and leaves the exported JSON unchanged from the pre-tracing
    format. *)

val null_ctx : ctx

val process : string ref
(** Lane name stamped into every export (["process"] footer) and, made
    safe for a file name, into every {!Obs.session} spool file. Keep it
    unique per OS process — e.g. ["serve-7421-<pid>"] — so merged
    timelines get distinct lanes. *)

val sample : every:int -> int -> bool
(** [sample ~every rid] — deterministic 1-in-[every] head sampling
    keyed on the correlation id: a pure hash, so client, router and
    backend always agree on whether a given rid is traced. [every <=
    0] never samples, [every = 1] always does. *)

val new_span_id : unit -> int
(** A fresh nonzero span id, unique within this process and — thanks
    to a per-process clock seed — not colliding across the processes
    of one trace in practice. *)

val ctx_of_rid : ?parent:int -> int -> ctx
(** The trace id derived deterministically from a correlation id
    (never all-zero), a fresh span id and the given parent (default
    0 = root). Used by whichever process is the trace head (no incoming
    context) so that retries and hedges of the same rid still land in
    one trace. *)

val hex_id : int -> int -> string
(** [hex_id hi lo] — the 32-hex-digit rendering of a trace id, as it
    appears in exported [args] and log exemplars. *)

val set_capacity : int -> unit
(** Resize (and clear) the ring; rounded up to a power of two.
    Default 65536 events. *)

val clear : unit -> unit
(** Drop all events and re-zero the time origin. *)

(** {1 Active-span stacks (profiler support)} *)

val stacks_on : bool ref
(** When set (by {!Obs.Profile}), every [span*] entry point also
    pushes its name onto the calling domain's active-span stack and
    pops it when the thunk returns — the wall-clock sampler reads
    these stacks cross-thread. Off by default; tracing alone never
    maintains the stacks. Prefer {!Obs.Profile.start}. *)

val on : unit -> bool
(** [!enabled || !stacks_on] — the guard for call sites that build a
    non-trivial span argument: the span must run if {e either} tracing
    or profiling wants it. *)

val max_stack_domains : int
(** Domains with id >= this are not stack-tracked (they still trace). *)

val stack_snapshot : int -> string array
(** [stack_snapshot domain_id] — the names currently open on that
    domain, outermost first; [[||]] when idle or out of range. Read
    without synchronisation: a concurrently-mutating stack can yield a
    frame list that never existed, which costs one misattributed
    sample and nothing else. *)

val mkdir_p : string -> unit
(** Create [dir] and any missing parents (mkdir -p semantics);
    existing components and races are silently fine. Used by every
    [--obs-dir] sink so a fresh deployment's first write cannot fail
    on a missing directory. *)

val span : string -> (unit -> 'a) -> 'a
(** Run the thunk and record a complete ("ph":"X") event with its
    duration. The event is recorded (and the exception re-raised) even
    if the thunk raises. *)

val span_arg : string -> string -> int -> (unit -> 'a) -> 'a
(** [span_arg name key v f] — like {!span} with one integer argument
    attached (e.g. ["node", 17]). *)

val span_ctx : string -> string -> int -> ctx -> (unit -> 'a) -> 'a
(** [span_ctx name key v ctx f] — {!span_arg} carrying a tracing
    identity; generate the ctx (and thus the span id) {e before}
    running [f] so children can parent to it. *)

val complete :
  ?arg_name:string ->
  ?arg:int ->
  ?ctx:ctx ->
  string ->
  t0_ns:int ->
  dur_ns:int ->
  unit
(** Record a complete ("ph":"X") event with an explicit start and
    duration — for spans whose endpoints were observed on different
    threads (e.g. the server's queue-wait span, stamped at dequeue
    with the enqueue timestamp). *)

val instant : ?arg_name:string -> ?arg:int -> ?ctx:ctx -> string -> unit
(** A point event ("ph":"i") — e.g. "first accepted forgery". *)

val recorded : unit -> int
(** Events currently held in the ring. *)

val dropped : unit -> int
(** Events lost to ring wrap-around since the last {!clear}. *)

val export : string -> unit
(** Write {["{"traceEvents":[...]}"]} JSON to a fresh file: events
    sorted by timestamp, each with [name], [ph], [ts], [dur], [pid],
    [tid] and optional [args]. The top-level object also carries a
    ["dropped"] footer — the {!dropped} count at export time — so a
    reader can tell a quiet trace from one the ring lapped. *)

val export_string : unit -> string
(** The same JSON as a string — the {!Wire.request.Trace_export}
    reply body. *)

val export_slice : string -> since_ns:int -> until_ns:int -> unit
(** {!export} restricted to events whose start timestamp (absolute
    {!Clock.now_ns} terms) falls within [since_ns, until_ns] — the
    slow-request flight recorder's dump format. {!Obs.session} writes
    the whole ring with {!export} to [<obs-dir>/trace-<lane>.json]. *)
