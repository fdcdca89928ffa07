(* The verification daemon.

   Thread/domain layout: the accept loop and one system thread per
   connection do only IO and framing; every prove and verify lands
   on the shared {!Pool} of worker domains, so CPU concurrency is
   bounded by [jobs] no matter how many clients connect. A connection
   thread parks on a one-shot cell (mutex + condition) until its
   worker delivers the response.

   Load shedding: the pool submit is {!Pool.submit_res} with the
   configured [max_queue] bound — when the backlog is full the request
   is answered [Overloaded] immediately instead of growing an
   unbounded queue. Deadlines are checked at the points where the
   request's fate is decided (dequeue and completion); a request that
   missed its deadline gets a typed [Deadline_exceeded] error, never a
   silently late answer or a hung connection.

   The compiled-verifier cache maps (scheme name, MD5 of the graph6
   payload) to the {!Simulator.compiled} image, an instance with its
   CSR rows. The decoder accepts exactly one graph6 string per
   labelled graph (set padding bits are rejected), so the digest is a
   canonical hash of exactly what verification consumes; a hit skips
   both the O(bytes/8 + n + m) graph6 decode and the compile. A miss
   goes from the bytes to sorted rows to the image
   ({!Graph6.decode_csr}, {!Simulator.compile_csr}) and builds no
   {!Graph.t}: verify, sampled, shard and disk-tier paths read only
   the CSR and compute verdicts alone, no transcript. A prove hands
   the image to the prover as it is; the bare-graph provers run an
   array BFS over its {!Instance.of_csr} rows. Two workers missing on
   the same key may compile twice — harmless, the second insert wins —
   and the cache is serialised by one mutex held only around table
   operations, never around a compile.

   Telemetry: every request carries a correlation id — the client's
   own or one the server allocates — stamped on the
   [server.request] / [server.queue_wait] / [server.compute] trace
   spans, the structured log line and the client's response, so one
   request can be followed across the connection thread and the
   worker domain. Rolling windows (always on, like the atomics — the
   per-request mutex is noise next to a verification round trip) feed
   the Prometheus exposition served both as a {!Wire.Metrics_text}
   reply and over the plain-HTTP sidecar. Sockets, framing, ids, the
   window's common slots and the log line live in {!Frame_server}. *)

let m_batch_coalesced = Obs.Metrics.counter "server.batch_ops_coalesced"
let m_queue_wait_us = Obs.Metrics.histogram "server.queue_wait_us"

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port}. *)
  jobs : int;
  cache_size : int;
  deadline_ms : int;  (** <= 0 disables deadlines. *)
  max_queue : int;
  http_port : int;  (** < 0 disables the sidecar; 0 picks a port. *)
  slow_ms : int;  (** <= 0 disables the slow-request recorder. *)
  obs_dir : string option;
      (** Where [slow-<id>-<seq>.json] trace slices land; [None] writes none. *)
  cache_dir : string;  (** "" disables the persistent compiled cache. *)
  log : Obs.Log.t option;  (** Structured per-request log sink. *)
  trace_sample : int;
      (** Head-based trace sampling: 1-in-N rids get a trace identity
          when no upstream context arrived (<= 0 disables; a wire
          trace context always wins). Deterministic per rid, so every
          process of the cluster agrees — see {!Obs.Trace.sample}. *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7411;
    jobs = 1;
    cache_size = 128;
    deadline_ms = 0;
    max_queue = 256;
    http_port = -1;
    slow_ms = 0;
    obs_dir = None;
    cache_dir = "";
    log = None;
    trace_sample = 0;
  }

(* The daemon's own counter slots in the rolling latency window. *)
let w_hits = Frame_server.w_first_extra
let w_misses = Frame_server.w_first_extra + 1

type t = {
  config : config;
  fs : Frame_server.t;
  pool : Pool.t;
  cache : Simulator.compiled Lru.t;
  cache_lock : Mutex.t;
  draining : bool Atomic.t;
  c_batch_ops : int Atomic.t;
  c_disk_hits : int Atomic.t;
  c_compile_misses : int Atomic.t;  (* every tier missed: had to compile *)
  c_overloaded : int Atomic.t;
  c_unavailable : int Atomic.t;
  c_deadline : int Atomic.t;
  c_slow : int Atomic.t;
  (* always-on partition-traffic counters (like the diskcache trio):
     dashboards must see shard flow even with the registry off *)
  c_partition_shards : int Atomic.t;
  c_partition_reject : int Atomic.t;
  (* always-on sampled-verification counters: the serving fast path's
     escalation rate is an SLO input, not optional telemetry *)
  c_sampled_requests : int Atomic.t;
  c_sampled_escalations : int Atomic.t;
  c_sampled_bits : int Atomic.t;
}

type stats = {
  requests : int;
  batch_ops : int;
  cache_hits : int;
  cache_misses : int;
  cache_entries : int;
  disk_hits : int;
  overloaded : int;
  unavailable : int;
  deadline_exceeded : int;
  bad_frames : int;
  connections : int;
  slow_requests : int;
  partition_shards : int;
  partition_reject : int;
  sampled_requests : int;
  sampled_escalations : int;
  sampled_bits_read : int;
}

let create config =
  if config.jobs < 1 then invalid_arg "Server.create: jobs < 1";
  if config.max_queue < 0 then invalid_arg "Server.create: max_queue < 0";
  (* the slow-request recorder writes its first slice mid-request;
     create the sink directory now so a fresh deployment cannot lose
     the very slice that would explain its first slow request *)
  if config.slow_ms > 0 then Option.iter Obs.Trace.mkdir_p config.obs_dir;
  let fs =
    Frame_server.create ~name:"server" ~host:config.host ~port:config.port
      ~http_port:config.http_port ~trace_sample:config.trace_sample
      ~log:config.log ()
  in
  let pool = Pool.create config.jobs in
  (* the pool's workers may be recording from now until {!run}
     returns, so a [Metrics.reset] in between would corrupt shards —
     make it a typed error instead (released after the pool join) *)
  Obs.Metrics.guard_reset "the server's worker pool is live";
  {
    config;
    fs;
    pool;
    cache = Lru.create ~capacity:(max 0 config.cache_size);
    cache_lock = Mutex.create ();
    draining = Atomic.make false;
    c_batch_ops = Atomic.make 0;
    c_disk_hits = Atomic.make 0;
    c_compile_misses = Atomic.make 0;
    c_overloaded = Atomic.make 0;
    c_unavailable = Atomic.make 0;
    c_deadline = Atomic.make 0;
    c_slow = Atomic.make 0;
    c_partition_shards = Atomic.make 0;
    c_partition_reject = Atomic.make 0;
    c_sampled_requests = Atomic.make 0;
    c_sampled_escalations = Atomic.make 0;
    c_sampled_bits = Atomic.make 0;
  }

let port t = Frame_server.port t.fs
let http_port t = Frame_server.http_port t.fs

let stats t =
  Mutex.lock t.cache_lock;
  let cache_hits = Lru.hits t.cache in
  let cache_entries = Lru.length t.cache in
  Mutex.unlock t.cache_lock;
  let disk_hits = Atomic.get t.c_disk_hits in
  {
    requests = Frame_server.requests t.fs;
    batch_ops = Atomic.get t.c_batch_ops;
    (* a disk-tier load is a cache hit as far as clients care: the
       request skipped both the graph6 decode and the compile. A miss
       means every tier missed — the daemon actually compiled — so a
       warm restart reports hits with zero misses. *)
    cache_hits = cache_hits + disk_hits;
    cache_misses = Atomic.get t.c_compile_misses;
    cache_entries;
    disk_hits;
    overloaded = Atomic.get t.c_overloaded;
    unavailable = Atomic.get t.c_unavailable;
    deadline_exceeded = Atomic.get t.c_deadline;
    bad_frames = Frame_server.bad_frames t.fs;
    connections = Frame_server.connections t.fs;
    slow_requests = Atomic.get t.c_slow;
    partition_shards = Atomic.get t.c_partition_shards;
    partition_reject = Atomic.get t.c_partition_reject;
    sampled_requests = Atomic.get t.c_sampled_requests;
    sampled_escalations = Atomic.get t.c_sampled_escalations;
    sampled_bits_read = Atomic.get t.c_sampled_bits;
  }

(* A draining server answers everything as usual but reports
   [ready = false], so a routing frontend stops handing it new work and
   it can be stopped once in-flight requests finish. *)
let set_draining t enable = Atomic.set t.draining enable

(* The readiness probe: [ready] iff not stopping, not draining and the
   pool backlog is below [max_queue]. *)
let health t =
  let pending = Pool.pending t.pool in
  {
    Wire.ready =
      (not (Frame_server.stopping t.fs))
      && (not (Atomic.get t.draining))
      && pending < t.config.max_queue;
    pending;
    max_queue = t.config.max_queue;
    uptime_ms = Frame_server.uptime_ms t.fs;
  }

(* --- request context --------------------------------------------------- *)

(* The daemon's per-request state, threaded down to the worker so the
   log line, the windows and the trace spans all describe the same
   request. *)
type local = {
  identity : Wire.identity option;  (* what the request computes, if anything *)
  mutable tparent : int;  (* span id children emitted right now nest under *)
  mutable cache : string;  (* "hit" | "disk" | "miss" | "-" *)
  mutable queue_wait_ns : int;
  mutable compute_ns : int;
  mutable n_nodes : int;  (* -1 when the request never decoded a graph *)
}

type ctx = local Frame_server.ctx

let fresh_local trace req =
  {
    identity = Wire.identity req;
    tparent = trace.Obs.Trace.span;
    cache = "-";
    queue_wait_ns = 0;
    compute_ns = 0;
    n_nodes = -1;
  }

(* A child identity under whatever span the request is currently
   inside ([tparent] — server.request, or server.compute once the
   worker picked the request up). Null stays null: unsampled requests
   keep emitting identity-less spans exactly as before. *)
let child_trace (ctx : ctx) =
  Frame_server.child_span ~parent:ctx.local.tparent ctx.trace

(* Run [f] in a fresh child span, which becomes the parent of every
   span [f] emits (cache_load, compile, ...). *)
let in_child_span (ctx : ctx) name arg_name arg f =
  let c = child_trace ctx in
  let saved = ctx.local.tparent in
  if c.Obs.Trace.span <> 0 then ctx.local.tparent <- c.Obs.Trace.span;
  let r = Obs.Trace.span_ctx name arg_name arg c f in
  ctx.local.tparent <- saved;
  r

(* --- one-shot response cells ------------------------------------------ *)

type cell = {
  cm : Mutex.t;
  cv : Condition.t;
  mutable value : Wire.response option;
}

let cell () = { cm = Mutex.create (); cv = Condition.create (); value = None }

let cell_put c v =
  Mutex.lock c.cm;
  c.value <- Some v;
  Condition.signal c.cv;
  Mutex.unlock c.cm

let cell_take c =
  Mutex.lock c.cm;
  while c.value = None do
    Condition.wait c.cv c.cm
  done;
  let v = Option.get c.value in
  Mutex.unlock c.cm;
  v

(* --- request handling ------------------------------------------------- *)

let err = Frame_server.err

(* Resolve the scheme, then the compiled image — memory tier (LRU),
   disk tier (mmap-validated image, when [cache_dir] is set), or by
   running [decode] to a CSR image + compiling — and hand both to [f].
   A compile also warms the disk tier, so the image survives a
   restart. Every tier names the image by the request's
   {!Wire.identity}. *)
let with_compiled t (ctx : ctx) (id : Wire.identity) ~decode f =
  match Registry.find id.scheme with
  | None -> err Wire.Unknown_scheme "unknown scheme %S" id.scheme
  | Some entry -> (
      let scheme = id.scheme and graph6 = id.image in
      let key = Wire.cache_key id and dir = t.config.cache_dir in
      let traced name g =
        if !Obs.Trace.enabled then
          Obs.Trace.span_ctx name "rid" ctx.rid (child_trace ctx) g
        else g ()
      in
      (* [tier] names where the image came from; any but a hit fills
         the memory tier *)
      let serve tier compiled =
        ctx.local.cache <- tier;
        ctx.local.n_nodes <- Instance.n compiled;
        if tier <> "hit" then begin
          Mutex.lock t.cache_lock;
          Lru.put t.cache key compiled;
          Mutex.unlock t.cache_lock
        end;
        f entry compiled
      in
      Mutex.lock t.cache_lock;
      let cached = Lru.find t.cache key in
      Mutex.unlock t.cache_lock;
      match cached with
      | Some compiled -> serve "hit" compiled
      | None -> (
          let disk =
            if dir = "" then None
            else
              traced "server.cache_load" (fun () ->
                  Diskcache.load ~dir ~key ~scheme ~graph6)
          in
          match disk with
          | Some compiled ->
              Atomic.incr t.c_disk_hits;
              serve "disk" compiled
          | None -> (
              ctx.local.cache <- "miss";
              Atomic.incr t.c_compile_misses;
              match decode () with
              | Error m -> err Wire.Bad_graph "%s" m
              | Ok csr ->
                  let compiled =
                    traced "server.compile" (fun () -> Simulator.compile_csr csr)
                  in
                  if dir <> "" then
                    Diskcache.store ~dir ~key ~scheme ~graph6 compiled;
                  serve "miss" compiled)))

let graph_csr graph6 () = Graph6.decode_csr graph6

(* Decode a shard onto its original identifiers: the local rows (ids
   0..ns-1) keep their dense indices, and the id table becomes the
   image's ids. The wire layer already guarantees the table is
   strictly increasing, so the order of the rows is the order of the
   ids and nothing is relabelled. *)
let shard_csr ~graph6 ~ids () =
  match Graph6.decode_csr graph6 with
  | Error _ as e -> e
  | Ok local ->
      if Csr.n local <> Array.length ids then
        Error
          (Printf.sprintf "shard id table has %d entries for a %d-node graph"
             (Array.length ids) (Csr.n local))
      else
        let offsets, targets, _ = Csr.export local in
        Csr.of_rows ~ids ~offsets ~targets

let deadline_error t stage =
  Atomic.incr t.c_deadline;
  err Wire.Deadline_exceeded "%s after the %d ms deadline" stage
    t.config.deadline_ms

(* Per-worker-domain arena: each pool domain reuses one set of
   simulator buffers across every verification it runs, so a warm
   batch verify allocates no per-run scratch at all. *)
let arena_key = Domain.DLS.new_key Simulator.arena

(* One prove or verify against the cache — the shared body of both
   the plain compute path and every batch sub-op — under the request's
   {!Wire.identity}. Runs on a worker domain. *)
let compute_one t ctx id req =
  match (req, id) with
  | Wire.Prove { graph6; _ }, Some id ->
      with_compiled t ctx id ~decode:(graph_csr graph6)
        (fun entry compiled ->
          Wire.Proved (entry.Registry.scheme.Scheme.prover compiled))
  | Wire.Verify { graph6; proof; _ }, Some id ->
      with_compiled t ctx id ~decode:(graph_csr graph6)
        (fun entry compiled ->
          let sch = entry.Registry.scheme in
          let verdicts =
            Simulator.run_compiled ~arena:(Domain.DLS.get arena_key) compiled
              proof ~radius:sch.Scheme.radius sch.Scheme.verifier
          in
          let rejecting = Simulator.rejecting verdicts in
          Wire.Verified { accepted = rejecting = []; rejecting })
  | ( Wire.Verify_partition
        { scheme; graph6; ids; owned; proof; radius; shard_index; shard_count = _ },
      Some id ) ->
      with_compiled t ctx id ~decode:(shard_csr ~graph6 ~ids)
        (fun entry compiled ->
          let scheme_v = entry.Registry.scheme in
          let ns = Array.length ids in
          if radius <> scheme_v.Scheme.radius then
            err Wire.Bad_request
              "shard cut for radius %d, but scheme %S verifies at radius %d"
              radius scheme scheme_v.Scheme.radius
          else if Instance.n compiled <> ns then
            (* a cache hit under the composite identity guarantees the
               image matches graph6 AND ids; sizes can only disagree if
               the identity string was forged — reject, don't crash *)
            err Wire.Bad_graph "shard graph does not match its id table"
          else if
            List.exists (fun (v, _) -> v < 0 || v >= ns) (Proof.bindings proof)
          then err Wire.Bad_request "proof references a node outside the shard"
          else begin
            Atomic.incr t.c_partition_shards;
            let proof =
              Proof.of_list
                (List.map (fun (v, b) -> (ids.(v), b)) (Proof.bindings proof))
            in
            let nodes =
              let out = ref [] in
              for i = ns - 1 downto 0 do
                if Bits.get owned i then out := ids.(i) :: !out
              done;
              Array.of_list !out
            in
            let run () =
              Simulator.run_verifier_on ~arena:(Domain.DLS.get arena_key)
                compiled proof ~radius:scheme_v.Scheme.radius ~nodes
                scheme_v.Scheme.verifier
            in
            let rejecting =
              Simulator.rejecting
                (if Obs.Trace.on () then
                   Obs.Trace.span_arg "server.shard" "shard" shard_index run
                 else run ())
            in
            let rejected = List.length rejecting in
            if rejected > 0 then
              ignore (Atomic.fetch_and_add t.c_partition_reject rejected);
            Wire.Partition_verified
              {
                all_accept = rejected = 0;
                owned = Array.length nodes;
                rejected;
                rejecting = Wire.rejecting_sample rejecting;
              }
          end)
  | Wire.Verify_sampled { scheme; graph6; proof; seed; queries; budget_id }, Some id
    -> (
      (* budget pinning happens before any graph work: a client that
         believes in a different ε must learn so cheaply *)
      match Sampled.find scheme with
      | None ->
          if Registry.find scheme = None then
            err Wire.Unknown_scheme "unknown scheme %S" scheme
          else
            err Wire.Bad_request "scheme %S has no sampled variant" scheme
      | Some rs ->
          if budget_id <> "" && budget_id <> rs.Randomized_scheme.budget then
            err Wire.Bad_request
              "budget %S does not match the server's %S for scheme %S"
              budget_id rs.Randomized_scheme.budget scheme
          else
            with_compiled t ctx id ~decode:(graph_csr graph6)
              (fun _entry compiled ->
                Atomic.incr t.c_sampled_requests;
                (* a [Qview.Budget_exceeded] is a scheme bug and lands
                   as [Internal] via the dispatch wrapper *)
                let v =
                  Randomized_scheme.verify ~arena:(Domain.DLS.get arena_key)
                    rs compiled proof ~seed ~queries
                in
                let probe = v.Randomized_scheme.probe in
                let bits_read = probe.Randomized_scheme.bits_read in
                ignore (Atomic.fetch_and_add t.c_sampled_bits bits_read);
                let final =
                  Option.value v.Randomized_scheme.final ~default:[]
                in
                let escalated = Option.is_some v.Randomized_scheme.final in
                if escalated then Atomic.incr t.c_sampled_escalations;
                Wire.Sampled_verified
                  {
                    sampled_accept = probe.Randomized_scheme.accepted;
                    escalated;
                    accepted = final = [];
                    bits_read;
                    nodes = probe.Randomized_scheme.nodes_checked;
                    rejecting = Wire.rejecting_sample final;
                  }))
  | _ -> err Wire.Internal "request dispatched to a worker by mistake"

(* The plain request a batch op runs as. *)
let op_request ~graphs ~proofs op =
  let within a i = i >= 0 && i < Array.length a in
  match op with
  | (Wire.Op_prove { graph; _ } | Wire.Op_verify { graph; _ })
    when not (within graphs graph) ->
      Error (Printf.sprintf "graph index %d out of range" graph)
  | Wire.Op_verify { proof; _ } when not (within proofs proof) ->
      Error "proof index out of range"
  | Wire.Op_prove { scheme; graph } ->
      Ok (Wire.Prove { scheme; graph6 = graphs.(graph) })
  | Wire.Op_verify { scheme; graph; proof } ->
      Ok
        (Wire.Verify { scheme; graph6 = graphs.(graph); proof = proofs.(proof) })

(* A whole batch runs as one pool task: one queue round trip and one
   worker-domain arena for up to 65535 ops. Ops are evaluated in
   order; identical ops (same kind, scheme, graph bytes and proof —
   compared by their canonical encoding) are coalesced and computed
   once, which is where a replayed serving mix wins big. Each op is
   isolated: its failure lands in its own reply slot, and an op that
   starts past the deadline answers [Deadline_exceeded] in its slot
   without poisoning completed ones. *)
let compute_batch t (ctx : ctx) ~deadline ~graphs ~proofs ~ops =
  let graphs = Array.of_list graphs in
  let proofs = Array.of_list proofs in
  let memo = Hashtbl.create 16 in
  let deadline_hit = ref false in
  let items =
    List.mapi
      (fun op_idx op ->
        Atomic.incr t.c_batch_ops;
        if !deadline_hit || Obs.Clock.now_ns () > deadline then begin
          if not !deadline_hit then begin
            deadline_hit := true;
            Atomic.incr t.c_deadline
          end;
          Wire.Item_error
            {
              code = Wire.Deadline_exceeded;
              message =
                Printf.sprintf "op started after the %d ms deadline"
                  t.config.deadline_ms;
            }
        end
        else
          (* the op value is the memo key: an op is a few words of
             plain data (scheme string + table indices), so hashing
             and comparing it costs nothing — repeated ops coalesce
             to one execution per distinct op *)
          match Hashtbl.find_opt memo op with
          | Some item ->
              Obs.Metrics.incr m_batch_coalesced;
              (* memo hits are points, not spans: a traced --batch 64
                 frame shows exactly which ops coalesced and which
                 ones actually ran *)
              if !Obs.Trace.enabled then
                Obs.Trace.instant ~arg_name:"op" ~arg:op_idx
                  ~ctx:(child_trace ctx) "server.batch_memo";
              item
          | None ->
              let item =
                match op_request ~graphs ~proofs op with
                | Error message ->
                    Wire.Item_error { code = Wire.Bad_request; message }
                | Ok req ->
                    let run () =
                      Wire.item_of_response
                        (try compute_one t ctx (Wire.identity req) req
                         with e ->
                           err Wire.Internal "%s" (Printexc.to_string e))
                    in
                    (* a real (uncoalesced) op gets its own span *)
                    if !Obs.Trace.enabled then
                      in_child_span ctx "server.batch_op" "op" op_idx run
                    else run ()
              in
              Hashtbl.replace memo op item;
              item)
      ops
  in
  Wire.Batch_reply items

(* A request logs and is costed under its identity's scheme: a batch's
   first op's, even when its ops mix schemes (the router places each op
   by its own key and splits mixed batches before they get here). *)
let scheme_of (ctx : ctx) =
  match ctx.local.identity with Some id -> id.Wire.scheme | None -> "-"

(* Runs on a worker domain. The deadline is measured from the
   request's arrival on the connection thread, so queue wait counts
   against it. *)
let compute t (ctx : ctx) req =
  let dequeue_ns = Obs.Clock.now_ns () in
  ctx.local.queue_wait_ns <- dequeue_ns - ctx.arrival_ns;
  if !Obs.Trace.enabled then
    Obs.Trace.complete ~arg_name:"rid" ~arg:ctx.rid ~ctx:(child_trace ctx)
      "server.queue_wait" ~t0_ns:ctx.arrival_ns ~dur_ns:ctx.local.queue_wait_ns;
  if !Obs.Metrics.enabled then
    Obs.Metrics.observe m_queue_wait_us (ctx.local.queue_wait_ns / 1_000);
  let deadline =
    if t.config.deadline_ms <= 0 then max_int
    else ctx.arrival_ns + (t.config.deadline_ms * 1_000_000)
  in
  if dequeue_ns > deadline then deadline_error t "dequeued"
  else begin
    let body () =
      match req with
      | Wire.Batch { graphs; proofs; ops } ->
          compute_batch t ctx ~deadline ~graphs ~proofs ~ops
      | req -> compute_one t ctx ctx.local.identity req
    in
    let run () =
      if !Obs.Trace.enabled then
        in_child_span ctx "server.compute" "rid" ctx.rid body
      else body ()
    in
    let resp =
      (* per-scheme cost accounting: this closure owns the worker
         domain, so Gc.allocated_bytes bracketing is exact for the
         request (plus the span-emit noise, which is constant) *)
      if !Obs.Profile.enabled then begin
        let p0 = Obs.Clock.now_ns () in
        let a0 = Gc.allocated_bytes () in
        let resp = run () in
        Obs.Profile.account ~scheme:(scheme_of ctx)
          ~cpu_ns:(Obs.Clock.now_ns () - p0)
          ~alloc_bytes:(Gc.allocated_bytes () -. a0);
        resp
      end
      else run ()
    in
    ctx.local.compute_ns <- Obs.Clock.now_ns () - dequeue_ns;
    if Obs.Clock.now_ns () > deadline then
      (* a finished batch keeps its per-op verdicts: the late ops
         already answered [Deadline_exceeded] in their own slots *)
      match resp with
      | Wire.Batch_reply _ -> resp
      | _ -> deadline_error t "completed"
    else resp
  end

let dispatch t ctx req =
  let c = cell () in
  let task () =
    let resp =
      try compute t ctx req
      with e -> err Wire.Internal "%s" (Printexc.to_string e)
    in
    cell_put c resp
  in
  match Pool.submit_res ~max_pending:t.config.max_queue t.pool task with
  | Ok () -> cell_take c
  | Error Pool.Queue_full ->
      Atomic.incr t.c_overloaded;
      err Wire.Overloaded "backlog full (%d tasks pending)" t.config.max_queue
  | Error Pool.Shutting_down ->
      Atomic.incr t.c_unavailable;
      err Wire.Unavailable "worker pool is shutting down"

let stats_reply t =
  let s = stats t in
  Wire.Stats_reply
    {
      Wire.requests = s.requests;
      cache_hits = s.cache_hits;
      cache_misses = s.cache_misses;
      cache_entries = s.cache_entries;
      overloaded = s.overloaded;
      deadline_exceeded = s.deadline_exceeded;
      uptime_ms = Frame_server.uptime_ms t.fs;
      metrics_json =
        (if !Obs.Metrics.enabled then
           Obs.Metrics.to_json (Obs.Metrics.snapshot ())
         else "{}");
    }

(* --- exposition -------------------------------------------------------- *)

let hit_ratio hits misses =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

(* The always-on service view (cumulative counters, rolling windows,
   readiness) plus — when the registry is enabled — the full engine
   metrics snapshot. One renderer feeds both the [Metrics_text] wire
   reply and the HTTP sidecar's [/metrics]. *)
let metrics_text t =
  let e = Obs.Export.create () in
  let s = stats t in
  Frame_server.export t.fs e;
  Obs.Export.counter e ~help:"Batch sub-operations processed"
    "server.batch_ops" s.batch_ops;
  Obs.Export.counter e ~help:"Requests shed by backpressure"
    "server.overloaded" s.overloaded;
  Obs.Export.counter e ~help:"Requests refused during shutdown"
    "server.unavailable" s.unavailable;
  Obs.Export.counter e ~help:"Requests past their deadline"
    "server.deadline_exceeded" s.deadline_exceeded;
  Obs.Export.counter e ~help:"Requests over the slow threshold"
    "server.slow_requests" s.slow_requests;
  Obs.Export.counter e ~help:"Compiled-verifier cache hits"
    "server.cache_hits" s.cache_hits;
  Obs.Export.counter e ~help:"Compiled-verifier cache misses"
    "server.cache_misses" s.cache_misses;
  Obs.Export.counter e ~help:"Compiled images served from the disk cache"
    "server.disk_cache_hits" s.disk_hits;
  Obs.Export.counter e ~help:"Partition shards verified"
    "partition.shards" s.partition_shards;
  Obs.Export.counter e ~help:"Rejecting owned nodes across partition shards"
    "partition.reject" s.partition_reject;
  Obs.Export.counter e ~help:"Sampled-verification requests served"
    "sampled.requests" s.sampled_requests;
  Obs.Export.counter e
    ~help:"Sampled rejections escalated to a full verification"
    "sampled.escalations" s.sampled_escalations;
  Obs.Export.counter e
    ~help:"Proof and label bits consumed by sampled verification runs"
    "sampled.bits_read" s.sampled_bits_read;
  List.iter
    (fun (name, rs) ->
      Obs.Export.gauge e
        ~labels:[ ("scheme", name) ]
        ~help:"Declared one-sided error budget of the sampled variant"
        "sampled.error_budget" rs.Randomized_scheme.epsilon)
    Sampled.all;
  let dc = Diskcache.counts () in
  Obs.Export.counter e ~help:"Disk-cache images loaded and validated"
    "diskcache.hits" dc.Diskcache.hits;
  Obs.Export.counter e ~help:"Disk-cache lookups with no image on disk"
    "diskcache.misses" dc.Diskcache.misses;
  Obs.Export.counter e
    ~help:"Disk-cache images rejected by validation (checksum, identity)"
    "diskcache.invalid" dc.Diskcache.invalid;
  Obs.Export.gauge e ~help:"Compiled verifiers resident"
    "server.cache_entries"
    (float_of_int s.cache_entries);
  let h = health t in
  Obs.Export.gauge e ~help:"Pool tasks queued or running"
    "server.pool_pending"
    (float_of_int h.Wire.pending);
  Obs.Export.gauge e ~help:"Queue bound before shedding" "server.max_queue"
    (float_of_int h.Wire.max_queue);
  Obs.Export.gauge e ~help:"1 when the next request would be accepted"
    "server.ready"
    (if h.Wire.ready then 1.0 else 0.0);
  List.iter
    (fun seconds ->
      let w = Obs.Window.stats ~seconds (Frame_server.window t.fs) in
      let labels = [ ("window", string_of_int w.Obs.Window.seconds ^ "s") ] in
      Obs.Export.gauge e ~labels
        ~help:"Compiled-verifier cache hit ratio, rolling window"
        "server.cache_hit_ratio"
        (hit_ratio
           w.Obs.Window.counters.(w_hits)
           w.Obs.Window.counters.(w_misses)))
    Frame_server.windows;
  (* GC/runtime telemetry and the profiler's families: live
     quick_stat values plus sampler counters and per-scheme costs *)
  Obs.Profile.exposition e;
  if !Obs.Metrics.enabled then
    Obs.Export.metrics_snapshot e (Obs.Metrics.snapshot ());
  Obs.Export.contents e

(* --- per-request telemetry -------------------------------------------- *)

(* The daemon's share of the bookkeeping once the response is known:
   cache windows, the latency histogram and the slow-request flight
   recorder. Runs on the connection thread. A slow request's log line
   names its trace. *)
let finish t (ctx : ctx) _req _resp ~latency_ns =
  let window = Frame_server.window t.fs in
  (match ctx.local.cache with
  | "hit" | "disk" -> Obs.Window.incr window w_hits
  | "miss" -> Obs.Window.incr window w_misses
  | _ -> ());
  let slow =
    t.config.slow_ms > 0 && latency_ns >= t.config.slow_ms * 1_000_000
  in
  if slow then begin
    let seq = Atomic.fetch_and_add t.c_slow 1 in
    Obs.Trace.instant ~arg_name:"rid" ~arg:ctx.rid ~ctx:(child_trace ctx)
      "server.slow_request";
    match t.config.obs_dir with
    | Some dir when !Obs.Trace.enabled -> (
        (* the rid is the client's choice and may repeat; the sequence
           number keeps every slice *)
        let path =
          Filename.concat dir (Printf.sprintf "slow-%d-%d.json" ctx.rid seq)
        in
        try
          Obs.Trace.export_slice path ~since_ns:ctx.arrival_ns
            ~until_ns:(ctx.arrival_ns + latency_ns)
        with Sys_error _ -> () (* a bad obs_dir must not kill the request *))
    | _ -> ()
  end;
  slow

let log_fields (ctx : ctx) _req =
  [
    ("scheme", Obs.Log.Str (scheme_of ctx));
    ("n", Obs.Log.Int ctx.local.n_nodes);
    ("cache", Obs.Log.Str ctx.local.cache);
    ("queue_wait_ns", Obs.Log.Int ctx.local.queue_wait_ns);
    ("compute_ns", Obs.Log.Int ctx.local.compute_ns);
  ]

let handle_request t ctx req =
  match req with
  | Wire.Stats -> stats_reply t
  | Wire.Health -> Wire.Health_reply (health t)
  | Wire.Drain { enable } ->
      (* graceful drain: keep serving everything, but report not-ready
         so a routing frontend stops sending new work *)
      set_draining t enable;
      Wire.Drain_reply { draining = enable; pending = Pool.pending t.pool }
  | _ -> dispatch t ctx req

(* --- HTTP sidecar ----------------------------------------------------- *)

let http_reply t = function
  | "/readyz" ->
      let h = health t in
      Some
        (Frame_server.http_text ~ready:h.Wire.ready
           (if h.Wire.ready then "ready\n"
            else
              Printf.sprintf "saturated: %d/%d tasks pending\n" h.Wire.pending
                h.Wire.max_queue))
  | _ -> None

(* --- lifecycle -------------------------------------------------------- *)

let stop t = Frame_server.stop t.fs

let run t =
  Frame_server.run t.fs
    {
      Frame_server.fresh = fresh_local;
      handle = handle_request t;
      log_fields;
      finish = finish t;
      metrics_text = (fun () -> metrics_text t);
      http = http_reply t;
    };
  Pool.shutdown t.pool;
  (* the pool is joined: recording has ceased, resets are safe again *)
  Obs.Metrics.unguard_reset ()

let start t = Thread.create run t
