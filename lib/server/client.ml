(* Blocking client for the verification service, plus the load
   generator behind `lcp loadgen`.

   The load generator replays a deterministic prove/verify mix over a
   small set of cycle graphs against one target: a setup pass proves
   each graph once (which also warms the server's compiled-verifier
   cache), then [connections] threads each send [requests] frames
   round-robin over the graphs, recording latency with {!Obs.Clock}.
   Every frame carries a distinct correlation id and the reply's echo
   is checked — a mismatch fails the frame's ops, since it means
   request/response framing slipped. The summary reports throughput,
   p50/p95/p99 overall and per request type, a per-code error
   breakdown, and closes with the server's own stats (so a run shows
   its cache hit rate). *)

type t = { fd : Unix.file_descr }

(* Deterministic jittered exponential backoff, shared by the client's
   connect retries, the cluster router's forwarding retries and `lcp
   top`'s reconnect loop. The jitter is a pure function of (seed,
   attempt) — a splitmix-style integer hash — so tests can pin exact
   delays and a retry storm still decorrelates across callers (each
   uses a distinct seed, e.g. the correlation id). *)
module Backoff = struct
  type t = {
    base_ms : float;  (** first delay, before jitter *)
    max_ms : float;  (** growth cap, before jitter *)
    multiplier : float;
    jitter : float;  (** delays land in [(1-j) .. (1+j)) x nominal *)
  }

  let default =
    { base_ms = 10.0; max_ms = 2_000.0; multiplier = 2.0; jitter = 0.5 }

  let mix seed attempt =
    let h = ref (((seed + 1) * 0x9E3779B1) lxor ((attempt + 1) * 0x85EBCA6B)) in
    h := !h lxor (!h lsr 16);
    h := !h * 0xC2B2AE35 land max_int;
    h := !h lxor (!h lsr 13);
    !h land 0xFFFFFF

  (* uniform in [0, 1), deterministic in (seed, attempt) *)
  let unit_float ~seed ~attempt =
    float_of_int (mix seed attempt) /. 16_777_216.0

  let delay_ms p ~seed ~attempt =
    let attempt = max 1 attempt in
    let nominal =
      Float.min p.max_ms
        (p.base_ms *. (p.multiplier ** float_of_int (attempt - 1)))
    in
    let u = unit_float ~seed ~attempt in
    nominal *. (1.0 -. p.jitter +. (2.0 *. p.jitter *. u))
end

let default_sleep_ms ms = if ms > 0.0 then Thread.delay (ms /. 1000.0)

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> Ok addr
  | exception Failure _ -> (
      match
        Unix.getaddrinfo host ""
          [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
      with
      | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ -> Ok addr
      | _ -> Error (Printf.sprintf "cannot resolve host %S" host)
      | exception _ -> Error (Printf.sprintf "cannot resolve host %S" host))

let connect_once ~host ~port =
  match resolve host with
  | Error _ as e -> e
  | Ok addr -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_INET (addr, port)) with
      | () ->
          (* without this, every small request frame waits out a
             Nagle/delayed-ACK exchange — milliseconds of idle per
             round trip on loopback *)
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          Ok { fd }
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with _ -> ());
          Error
            (Printf.sprintf "cannot connect to %s:%d: %s" host port
               (Unix.error_message e)))

let connect ?(host = "127.0.0.1") ?(retries = 0) ?(backoff = Backoff.default)
    ?(backoff_seed = 0) ?(sleep_ms = default_sleep_ms) ~port () =
  let rec go attempt =
    match connect_once ~host ~port with
    | Ok _ as ok -> ok
    | Error _ as e when attempt > retries -> e
    | Error _ ->
        sleep_ms (Backoff.delay_ms backoff ~seed:backoff_seed ~attempt);
        go (attempt + 1)
  in
  go 1

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send ?(id = 0) ?trace t req =
  match Net_io.write_all t.fd (Wire.encode_request ~id ?trace req) with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
      Error ("send: " ^ Unix.error_message e)

let recv_full t =
  match Net_io.read_exact t.fd Wire.header_bytes with
  | None -> Error "connection closed by server"
  | Some raw -> (
      match Wire.decode_header raw with
      | Error e ->
          Error ("bad response header: " ^ Wire.header_error_to_string e)
      | Ok { Wire.tag; length } -> (
          match Net_io.read_exact t.fd length with
          | None -> Error "connection closed mid-response"
          | Some payload -> Wire.decode_response_payload ~tag payload))
  | exception Unix.Unix_error (e, _, _) ->
      Error ("recv: " ^ Unix.error_message e)

let call_id ?trace t ~id req =
  match send ~id ?trace t req with
  | Ok () -> Result.map (fun (id, _, resp) -> (id, resp)) (recv_full t)
  | Error _ as e -> e

let call t req = Result.map snd (call_id t ~id:0 req)

(* The wire form of a local span: the next hop parents its own request
   span under the span that timed this call. *)
let wire_trace (c : Obs.Trace.ctx) =
  if c.Obs.Trace.span = 0 then None
  else
    Some
      {
        Wire.trace_hi = c.Obs.Trace.t_hi;
        trace_lo = c.Obs.Trace.t_lo;
        parent_span = c.Obs.Trace.span;
      }

(* --- load generator --------------------------------------------------- *)

type percentiles = {
  p50_us : float;
  p95_us : float;
  p99_us : float;
  mean_us : float;
  max_us : float;
}

type lat_summary = { count : int; latency : percentiles option }

(* Error classification: one slot per wire error code, plus transport
   failures, well-formed-but-wrong responses and replies whose echoed
   correlation id is not the request's. *)
let error_codes =
  [
    Wire.Bad_frame;
    Wire.Unsupported_version;
    Wire.Unknown_scheme;
    Wire.Bad_graph;
    Wire.Bad_request;
    Wire.Overloaded;
    Wire.Deadline_exceeded;
    Wire.Internal;
    Wire.Unavailable;
  ]

let n_codes = List.length error_codes
let slot_transport = n_codes
let slot_unexpected = n_codes + 1
let slot_id_mismatch = n_codes + 2
let n_slots = n_codes + 3

let slot_of_code code =
  let rec idx i = function
    | [] -> slot_unexpected
    | c :: rest -> if c = code then i else idx (i + 1) rest
  in
  idx 0 error_codes

let slot_name i =
  if i = slot_transport then "transport"
  else if i = slot_unexpected then "unexpected"
  else if i = slot_id_mismatch then "id_mismatch"
  else Wire.error_code_to_string (List.nth error_codes i)

type report = {
  connections : int;
  requests_per_connection : int;
  batch : int;
  prove_weight : int;
  verify_weight : int;
  sampled_weight : int;
  queries : int;
  scheme : string;
  sizes : int list;
  total_s : float;
  throughput_rps : float;
  throughput_ops : float;
  ok : int;
  errors : int;
  errors_by_code : (string * int) list;
  overall : lat_summary;
  prove : lat_summary;
  verify : lat_summary;
  sampled : lat_summary;
  escalations : int;
  batch_frames : lat_summary;
  server : Wire.server_stats option;
  gc_alloc_bytes : float;
  gc_minor : int;
  gc_major : int;
}

let summarise ns_list =
  let a = Array.of_list ns_list in
  Array.sort compare a;
  let count = Array.length a in
  if count = 0 then { count; latency = None }
  else begin
    let us i = float_of_int a.(i) /. 1_000. in
    let pct p = us ((count - 1) * p / 100) in
    let sum = Array.fold_left ( + ) 0 a in
    {
      count;
      latency =
        Some
          {
            p50_us = pct 50;
            p95_us = pct 95;
            p99_us = pct 99;
            mean_us = float_of_int sum /. float_of_int count /. 1_000.;
            max_us = us (count - 1);
          };
    }
  end

(* One worker thread: its own connection, its own latency log. *)
type worker_result = {
  mutable w_ok : int;
  mutable w_errors : int;
  w_by_slot : int array;  (* n_slots entries *)
  mutable w_prove_ns : int list;
  mutable w_verify_ns : int list;
  mutable w_sampled_ns : int list;
  mutable w_escalations : int;
  mutable w_batch_ns : int list;  (* per-frame latency, batch > 1 only *)
}

let fail res slot n =
  res.w_errors <- res.w_errors + n;
  res.w_by_slot.(slot) <- res.w_by_slot.(slot) + n

(* The one classifier every op's reply goes through — a plain
   response, or the response its batch slot encodes; [Error slot] is
   a failure that never produced a response. Returns whether the
   semantically right answer came back; anything else is tallied in
   its error slot. *)
let classify res kind reply =
  match (kind, reply) with
  | `P, Ok (Wire.Proved (Some _)) | `V, Ok (Wire.Verified { accepted = true; _ })
    ->
      res.w_ok <- res.w_ok + 1;
      true
  | `S, Ok (Wire.Sampled_verified { accepted = true; escalated; _ }) ->
      res.w_ok <- res.w_ok + 1;
      if escalated then res.w_escalations <- res.w_escalations + 1;
      true
  | _, Ok (Wire.Error_reply { code; _ }) ->
      fail res (slot_of_code code) 1;
      false
  | _, Ok _ ->
      fail res slot_unexpected 1;
      false
  | _, Error slot ->
      fail res slot 1;
      false

(* One worker: frame [i] carries ops [i * batch .. i * batch + batch - 1]
   of the connection's deterministic mix, op [k] on graph
   [(conn_id + k) mod ngraphs]. With [batch = 1] the frame is that op's
   plain request; otherwise it is a Batch frame whose shared tables
   list every graph and its proof once, so op [k]'s proof index equals
   its graph index. Every frame carries a distinct correlation id,
   head-sampled for tracing, and a reply echoing any other id fails
   every op in the frame. ok/errors count ops, so runs of equal op
   volume compare across batch sizes; latency is per op kind when
   [batch = 1] and per frame otherwise. *)
let run_worker ~host ~port ~requests ~batch ~kind ~queries ~graphs ~scheme
    ~conn_id ~trace_sample res =
  match connect ~host ~port ~retries:2 ~backoff_seed:conn_id () with
  | Error _ -> fail res slot_transport (requests * batch)
  | Ok client ->
      Fun.protect ~finally:(fun () -> close client) @@ fun () ->
      let ngraphs = Array.length graphs in
      let graph k = (conn_id + k) mod ngraphs in
      let gtable = Array.to_list (Array.map fst graphs)
      and ptable = Array.to_list (Array.map snd graphs) in
      let plain k ~id =
        let g6, proof = graphs.(graph k) in
        match kind k with
        | `P -> Wire.Prove { scheme; graph6 = g6 }
        | `V -> Wire.Verify { scheme; graph6 = g6; proof }
        | `S ->
            (* the request id doubles as the PRG seed: distinct per
               request, deterministic per run *)
            Wire.Verify_sampled
              { scheme; graph6 = g6; proof; seed = id; queries; budget_id = "" }
      in
      let op k =
        match kind k with
        | `P -> Wire.Op_prove { scheme; graph = graph k }
        | `V | `S (* never: sampled ops do not ride batch frames *) ->
            Wire.Op_verify { scheme; graph = graph k; proof = graph k }
      in
      for i = 0 to requests - 1 do
        let ks = List.init batch (fun j -> (i * batch) + j) in
        (* distinct per frame across all workers, never 0 *)
        let id = (conn_id * requests) + i + 1 in
        let req =
          if batch = 1 then plain i ~id
          else Wire.Batch { graphs = gtable; proofs = ptable; ops = List.map op ks }
        in
        let tctx =
          if Obs.Trace.sample ~every:trace_sample id then
            Obs.Trace.ctx_of_rid id
          else Obs.Trace.null_ctx
        in
        let t0 = Obs.Clock.now_ns () in
        let outcome =
          Obs.Trace.span_ctx "client.request" "rid" id tctx (fun () ->
              call_id ?trace:(wire_trace tctx) client ~id req)
        in
        let dt = Obs.Clock.now_ns () - t0 in
        let replies =
          match outcome with
          | Ok (rid, _) when rid <> id ->
              List.map (fun _ -> Error slot_id_mismatch) ks
          | Ok (_, Wire.Batch_reply items)
            when batch > 1 && List.length items = batch ->
              res.w_batch_ns <- dt :: res.w_batch_ns;
              List.map (fun item -> Ok (snd (Wire.item_response item))) items
          | Ok (_, resp) -> List.map (fun _ -> Ok resp) ks
          | Error _ -> List.map (fun _ -> Error slot_transport) ks
        in
        List.iter2
          (fun k reply ->
            if classify res (kind k) reply && batch = 1 then
              match kind k with
              | `P -> res.w_prove_ns <- dt :: res.w_prove_ns
              | `V -> res.w_verify_ns <- dt :: res.w_verify_ns
              | `S -> res.w_sampled_ns <- dt :: res.w_sampled_ns)
          ks replies
      done

let loadgen ?(host = "127.0.0.1") ?(batch = 1) ?(trace_sample = 0) ~port
    ~connections ~requests ~mix:(p, v, s) ~scheme ~sizes () =
  let queries =
    match Sampled.find scheme with
    | Some rs -> rs.Randomized_scheme.queries
    | None -> 0
  in
  if connections < 1 then Error "loadgen: connections must be >= 1"
  else if requests < 1 then Error "loadgen: requests must be >= 1"
  else if batch < 1 || batch > 0xFFFF then
    Error "loadgen: batch must be in 1..65535"
  else if p < 0 || v < 0 || s < 0 || p + v + s = 0 then
    Error "loadgen: the mix needs non-negative weights summing to >= 1"
  else if batch > 1 && s > 0 then
    Error "loadgen: sampled ops cannot ride batch frames (drop --batch or the S weight)"
  else if s > 0 && queries = 0 then
    Error (Printf.sprintf "loadgen: scheme %S has no sampled variant" scheme)
  else if sizes = [] then Error "loadgen: need at least one graph size"
  else if List.exists (fun s -> s < 3) sizes then
    Error "loadgen: cycle sizes must be >= 3"
  else
    (* Setup pass: prove every graph once (warming the server's cache);
       the verify ops replay these proofs. *)
    let setup () =
      match connect ~host ~port () with
      | Error _ as e -> e
      | Ok client ->
          Fun.protect ~finally:(fun () -> close client) @@ fun () ->
          let rec build acc = function
            | [] -> Ok (Array.of_list (List.rev acc))
            | size :: rest -> (
                let g6 = Graph6.encode (Builders.cycle size) in
                match call client (Wire.Prove { scheme; graph6 = g6 }) with
                | Ok (Wire.Proved (Some proof)) -> build ((g6, proof) :: acc) rest
                | Ok (Wire.Proved None) ->
                    Error
                      (Printf.sprintf
                         "loadgen: scheme %S rejects the %d-cycle as a \
                          no-instance; pick a scheme/size mix of yes-instances"
                         scheme size)
                | Ok (Wire.Error_reply { code; message }) ->
                    Error
                      (Printf.sprintf "loadgen setup: server said %s: %s"
                         (Wire.error_code_to_string code)
                         message)
                | Ok _ -> Error "loadgen setup: unexpected response type"
                | Error m -> Error ("loadgen setup: " ^ m))
          in
          build [] sizes
    in
    match setup () with
    | Error _ as e -> e
    | Ok graphs ->
        let kind k =
          let m = k mod (p + v + s) in
          if m < p then `P else if m < p + v then `V else `S
        in
        let results =
          Array.init connections (fun _ ->
              {
                w_ok = 0;
                w_errors = 0;
                w_by_slot = Array.make n_slots 0;
                w_prove_ns = [];
                w_verify_ns = [];
                w_sampled_ns = [];
                w_escalations = 0;
                w_batch_ns = [];
              })
        in
        (* Client-side GC bracket: worker threads share this domain
           (systhreads), so the domain-local counters cover the whole
           run — the client half of a bench's allocation ledger. *)
        let gc0 = Gc.quick_stat () in
        let alloc0 = Gc.allocated_bytes () in
        let t0 = Obs.Clock.now_ns () in
        let threads =
          List.init connections (fun conn_id ->
              Thread.create
                (fun () ->
                  run_worker ~host ~port ~requests ~batch ~kind ~queries
                    ~graphs ~scheme ~conn_id ~trace_sample results.(conn_id))
                ())
        in
        List.iter Thread.join threads;
        let total_s = Obs.Clock.ns_to_s (Obs.Clock.now_ns () - t0) in
        let gc_alloc_bytes = Gc.allocated_bytes () -. alloc0 in
        let gc1 = Gc.quick_stat () in
        let gc_minor = gc1.Gc.minor_collections - gc0.Gc.minor_collections in
        let gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections in
        let server_stats =
          match connect ~host ~port () with
          | Error _ -> None
          | Ok client ->
              Fun.protect ~finally:(fun () -> close client) @@ fun () ->
              (match call client Wire.Stats with
              | Ok (Wire.Stats_reply st) -> Some st
              | _ -> None)
        in
        let sum f = Array.fold_left (fun a r -> a + f r) 0 results in
        let concat f =
          Array.fold_left (fun a r -> List.rev_append (f r) a) [] results
        in
        let ok = sum (fun r -> r.w_ok) in
        let errors = sum (fun r -> r.w_errors) in
        let errors_by_code =
          List.filter_map
            (fun slot ->
              let n = sum (fun r -> r.w_by_slot.(slot)) in
              if n = 0 then None else Some (slot_name slot, n))
            (List.init n_slots Fun.id)
        in
        let prove_ns = concat (fun r -> r.w_prove_ns) in
        let verify_ns = concat (fun r -> r.w_verify_ns) in
        let sampled_ns = concat (fun r -> r.w_sampled_ns) in
        let batch_ns = concat (fun r -> r.w_batch_ns) in
        (* ok + errors counts ops (each op lands in exactly one bucket,
           including the failure paths), so ops/s is the req-equivalent
           throughput and frames/s = ops/s ÷ batch. *)
        let ops_per_s =
          if total_s > 0. then float_of_int (ok + errors) /. total_s else 0.
        in
        Ok
          {
            connections;
            requests_per_connection = requests;
            batch;
            prove_weight = p;
            verify_weight = v;
            sampled_weight = s;
            queries;
            scheme;
            sizes;
            total_s;
            throughput_rps = ops_per_s /. float_of_int batch;
            throughput_ops = ops_per_s;
            ok;
            errors;
            errors_by_code;
            overall =
              summarise
                (List.rev_append batch_ns
                   (List.rev_append sampled_ns
                      (List.rev_append prove_ns verify_ns)));
            prove = summarise prove_ns;
            verify = summarise verify_ns;
            sampled = summarise sampled_ns;
            escalations = sum (fun r -> r.w_escalations);
            batch_frames = summarise batch_ns;
            server = server_stats;
            gc_alloc_bytes;
            gc_minor;
            gc_major;
          }

(* --- rendering -------------------------------------------------------- *)

let summary_json { count; latency } =
  match latency with
  | None -> Printf.sprintf {|{"count":%d}|} count
  | Some l ->
      Printf.sprintf
        {|{"count":%d,"p50_us":%.1f,"p95_us":%.1f,"p99_us":%.1f,"mean_us":%.1f,"max_us":%.1f}|}
        count l.p50_us l.p95_us l.p99_us l.mean_us l.max_us

let report_json r =
  let server =
    match r.server with
    | None -> "null"
    | Some st ->
        Printf.sprintf
          {|{"requests":%d,"cache_hits":%d,"cache_misses":%d,"cache_entries":%d,"overloaded":%d,"deadline_exceeded":%d,"uptime_ms":%d,"metrics":%s}|}
          st.Wire.requests st.Wire.cache_hits st.Wire.cache_misses
          st.Wire.cache_entries st.Wire.overloaded st.Wire.deadline_exceeded
          st.Wire.uptime_ms
          (if st.Wire.metrics_json = "" then "{}" else st.Wire.metrics_json)
  in
  let by_code =
    String.concat ","
      (List.map
         (fun (name, n) -> Printf.sprintf {|"%s":%d|} (Obs.Json.escape name) n)
         r.errors_by_code)
  in
  Printf.sprintf
    {|{"scheme":"%s","sizes":[%s],"connections":%d,"requests_per_connection":%d,"batch":%d,"mix":{"prove":%d,"verify":%d,"sampled":%d},"queries":%d,"total_s":%.4f,"throughput_rps":%.1f,"throughput_ops":%.1f,"ok":%d,"errors":%d,"errors_by_code":{%s},"overall":%s,"prove":%s,"verify":%s,"sampled":%s,"escalations":%d,"batch_frames":%s,"server":%s,"gc":{"allocated_bytes":%.0f,"minor_collections":%d,"major_collections":%d}}|}
    (Obs.Json.escape r.scheme)
    (String.concat "," (List.map string_of_int r.sizes))
    r.connections r.requests_per_connection r.batch r.prove_weight
    r.verify_weight r.sampled_weight r.queries r.total_s r.throughput_rps
    r.throughput_ops r.ok r.errors by_code
    (summary_json r.overall) (summary_json r.prove)
    (summary_json r.verify)
    (summary_json r.sampled)
    r.escalations
    (summary_json r.batch_frames)
    server r.gc_alloc_bytes r.gc_minor r.gc_major

let pp_summary ppf name { count; latency } =
  match latency with
  | None -> Format.fprintf ppf "%-8s 0 requests@." name
  | Some l ->
      Format.fprintf ppf
        "%-8s %5d requests  p50 %8.1f us  p95 %8.1f us  p99 %8.1f us  max \
         %8.1f us@."
        name count l.p50_us l.p95_us l.p99_us l.max_us

let pp_report ppf r =
  Format.fprintf ppf
    "loadgen: %d connection(s) x %d request(s)%s, mix \
     prove:verify:sampled = %d:%d:%d, scheme %s, cycle sizes [%s]@."
    r.connections r.requests_per_connection
    (if r.batch > 1 then Printf.sprintf " x %d op(s)/batch" r.batch else "")
    r.prove_weight r.verify_weight r.sampled_weight r.scheme
    (String.concat "; " (List.map string_of_int r.sizes));
  if r.batch > 1 then
    Format.fprintf ppf
      "total:   %.3f s, %.1f frame/s, %.1f op/s, %d ok, %d error(s)@."
      r.total_s r.throughput_rps r.throughput_ops r.ok r.errors
  else
    Format.fprintf ppf "total:   %.3f s, %.1f req/s, %d ok, %d error(s)@."
      r.total_s r.throughput_rps r.ok r.errors;
  if r.errors_by_code <> [] then
    Format.fprintf ppf "errors:  %s@."
      (String.concat ", "
         (List.map
            (fun (name, n) -> Printf.sprintf "%s %d" name n)
            r.errors_by_code));
  pp_summary ppf "overall" r.overall;
  if r.batch > 1 then pp_summary ppf "frame" r.batch_frames
  else begin
    pp_summary ppf "prove" r.prove;
    pp_summary ppf "verify" r.verify;
    if r.sampled_weight > 0 then begin
      pp_summary ppf "sampled" r.sampled;
      Format.fprintf ppf "sampled: q=%d, %d escalation(s)@." r.queries
        r.escalations
    end
  end;
  if r.gc_alloc_bytes > 0.0 then
    Format.fprintf ppf
      "client:  %.1f MB allocated, %d minor / %d major collection(s)@."
      (r.gc_alloc_bytes /. 1_048_576.0)
      r.gc_minor r.gc_major;
  match r.server with
  | None -> ()
  | Some st ->
      Format.fprintf ppf
        "server:  %d requests, cache %d hit(s) / %d miss(es) (%d cached), %d \
         shed, %d past deadline@."
        st.Wire.requests st.Wire.cache_hits st.Wire.cache_misses
        st.Wire.cache_entries st.Wire.overloaded st.Wire.deadline_exceeded
