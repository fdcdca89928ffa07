(** mmap-persisted compiled-CSR image cache — the disk tier behind
    [lcp serve --cache-dir].

    Each {!Lru} key gets one [<key>.lcpc] file holding the compiled
    image's raw arrays plus the scheme name and graph6 bytes it was
    built from. {!load} memory-maps the file, validates a whole-file
    checksum and the identity fields, and checks the persisted rows,
    which are the {!Simulator.compiled} image — no graph6 decode, no
    {!Simulator.compile} — so a restarted daemon answers its first
    request for a known graph warm. A file in an older format version
    is refused like a corrupt one.

    Both operations are total: {!store} is best-effort (temp file +
    atomic rename; failures are swallowed — a read-only cache dir
    must never fail the request that tried to warm it) and {!load}
    answers [None] on any corruption, truncation, version or identity
    mismatch, leaving the caller to fall back to compiling. *)

val store :
  dir:string ->
  key:string ->
  scheme:string ->
  graph6:string ->
  Simulator.compiled ->
  unit

val load :
  dir:string ->
  key:string ->
  scheme:string ->
  graph6:string ->
  Simulator.compiled option
(** [Some compiled] only if the file exists, its checksum and stored
    (scheme, graph6) identity match, and every structural invariant
    re-validates ({!Csr.of_rows}: framing, ranges, sorted loop-free
    rows, symmetry). The image is a bare graph's, as
    {!Simulator.compile_csr} makes; no {!Graph.t} is built. *)

type counts = { hits : int; misses : int; invalid : int }

val counts : unit -> counts
(** Always-on load outcome counters (process-wide, independent of
    {!Obs.Metrics.enabled}): [hits] = image reassembled, [misses] = no
    file, [invalid] = a file existed but failed validation and was
    ignored. Rendered as [lcp_diskcache_*_total] in the server's
    Prometheus exposition. *)
