(* The wire endpoint shared by the daemon and the router; see the
   interface for what it owns. *)

type t = {
  name : string;
  trace_sample : int;
  log : Obs.Log.t option;
  request_span : string;
  sock : Unix.file_descr;
  actual_port : int;
  http_sock : Unix.file_descr option;
  actual_http_port : int;
  started_ns : int;
  stopping : bool Atomic.t;
  next_rid : int Atomic.t;
  window : Obs.Window.t;  (* latency µs + the w_* slots below *)
  c_requests : int Atomic.t;
  c_bad_frames : int Atomic.t;
  c_connections : int Atomic.t;
}

let w_requests = 0
let w_errors = 1
let w_ops = 2 (* batch sub-ops count as ops; a plain request is 1 op *)
let w_first_extra = 3
let w_owner_slots = 2

type 'a ctx = {
  rid : int;
  arrival_ns : int;
  trace : Obs.Trace.ctx;
  local : 'a;
}

type 'a service = {
  fresh : Obs.Trace.ctx -> Wire.request -> 'a;
  handle : 'a ctx -> Wire.request -> Wire.response;
  log_fields : 'a ctx -> Wire.request -> (string * Obs.Log.field) list;
  finish : 'a ctx -> Wire.request -> Wire.response -> latency_ns:int -> bool;
  metrics_text : unit -> string;
  http : string -> string option;
}

let listen_on host port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen sock 64
   with e ->
     (try Unix.close sock with _ -> ());
     raise e);
  let actual =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  (sock, actual)

let create ~name ~host ~port ~http_port ~trace_sample ~log () =
  let sock, actual_port = listen_on host port in
  let http_sock, actual_http_port =
    if http_port < 0 then (None, -1)
    else
      match listen_on host http_port with
      | s, p -> (Some s, p)
      | exception e ->
          (try Unix.close sock with _ -> ());
          raise e
  in
  {
    name;
    trace_sample;
    log;
    request_span = name ^ ".request";
    sock;
    actual_port;
    http_sock;
    actual_http_port;
    started_ns = Obs.Clock.now_ns ();
    stopping = Atomic.make false;
    next_rid = Atomic.make 1;
    window =
      Obs.Window.create ~horizon:60
        ~counters:(w_first_extra + w_owner_slots)
        ();
    c_requests = Atomic.make 0;
    c_bad_frames = Atomic.make 0;
    c_connections = Atomic.make 0;
  }

let port t = t.actual_port
let http_port t = t.actual_http_port
let stopping t = Atomic.get t.stopping
let window t = t.window
let requests t = Atomic.get t.c_requests
let bad_frames t = Atomic.get t.c_bad_frames
let connections t = Atomic.get t.c_connections
let uptime_ms t = (Obs.Clock.now_ns () - t.started_ns) / 1_000_000
let windows = [ 1; 10; 60 ]

(* The families every endpoint exports under its [name] prefix. *)
let export t e =
  let family suffix = t.name ^ suffix in
  Obs.Export.counter e ~help:"Requests received" (family ".requests")
    (requests t);
  Obs.Export.counter e ~help:"Unparseable frames" (family ".bad_frames")
    (bad_frames t);
  Obs.Export.counter e ~help:"Connections accepted" (family ".connections")
    (connections t);
  Obs.Export.gauge e
    ~help:(Printf.sprintf "Seconds since the %s started" t.name)
    (family ".uptime_seconds")
    (float_of_int (uptime_ms t) /. 1000.0);
  List.iter
    (fun seconds ->
      let w = Obs.Window.stats ~seconds t.window in
      let labels = [ ("window", string_of_int w.Obs.Window.seconds ^ "s") ] in
      let per_second slot =
        float_of_int w.Obs.Window.counters.(slot)
        /. float_of_int w.Obs.Window.seconds
      in
      Obs.Export.window_summary e
        ~help:"Request latency in microseconds, rolling window"
        (family ".request_us") w;
      Obs.Export.gauge e ~labels ~help:"Requests per second, rolling window"
        (family ".request_rate") w.Obs.Window.rate;
      (* frames/s is request_rate; ops/s counts batch sub-ops, so the two
         diverge exactly when batching is doing its job *)
      Obs.Export.gauge e ~labels
        ~help:"Operations per second (batch sub-ops counted singly)"
        (family ".op_rate") (per_second w_ops);
      Obs.Export.gauge e ~labels ~help:"Error responses per second"
        (family ".error_rate") (per_second w_errors))
    windows

let count_bad_frame t = Atomic.incr t.c_bad_frames

(* Skips 0, the "unassigned" sentinel, on wrap-around. *)
let fresh_rid t =
  let rec fresh () =
    let v = Atomic.fetch_and_add t.next_rid 1 land max_int in
    if v = 0 then fresh () else v
  in
  fresh ()

(* An upstream-supplied context always wins (the head already made the
   sampling decision); otherwise this process is the trace head for its
   1-in-N share of rids. *)
let trace_ctx t rid = function
  | Some { Wire.trace_hi; trace_lo; parent_span } ->
      {
        Obs.Trace.t_hi = trace_hi;
        t_lo = trace_lo;
        span = Obs.Trace.new_span_id ();
        parent = parent_span;
      }
  | None ->
      if Obs.Trace.sample ~every:t.trace_sample rid then
        Obs.Trace.ctx_of_rid rid
      else Obs.Trace.null_ctx

let child_span ?parent (trace : Obs.Trace.ctx) =
  if trace.Obs.Trace.span = 0 then Obs.Trace.null_ctx
  else
    {
      trace with
      Obs.Trace.span = Obs.Trace.new_span_id ();
      parent = Option.value parent ~default:trace.Obs.Trace.span;
    }

let outcome_of = function
  | Wire.Error_reply { code; _ } -> Wire.error_code_to_string code
  | _ -> "ok"

(* The common half of a request's bookkeeping once its response is
   known: the window's shared slots, the owner's [finish], then the
   structured log line. Runs on the connection thread. *)
let finish_request t service ctx req resp =
  let latency_ns = Obs.Clock.now_ns () - ctx.arrival_ns in
  let latency_us = latency_ns / 1_000 in
  let outcome = outcome_of resp in
  Obs.Window.observe t.window latency_us;
  Obs.Window.incr t.window w_requests;
  Obs.Window.add t.window w_ops
    (match req with Wire.Batch { ops; _ } -> List.length ops | _ -> 1);
  if outcome <> "ok" then Obs.Window.incr t.window w_errors;
  let exemplar = service.finish ctx req resp ~latency_ns in
  match t.log with
  | None -> ()
  | Some log ->
      let fields =
        (("rid", Obs.Log.Int ctx.rid)
         :: ("rid_hex", Obs.Log.Str (Printf.sprintf "%x" ctx.rid))
         :: ("req", Obs.Log.Str (Wire.request_kind req))
         :: service.log_fields ctx req)
        @ [
            ("latency_us", Obs.Log.Int latency_us);
            ("outcome", Obs.Log.Str outcome);
          ]
      in
      (* exemplar: the line names its trace so the operator can jump
         from the log straight to the merged timeline *)
      let fields =
        if exemplar && ctx.trace.Obs.Trace.span <> 0 then
          fields
          @ [
              ( "trace",
                Obs.Log.Str
                  (Obs.Trace.hex_id ctx.trace.Obs.Trace.t_hi
                     ctx.trace.Obs.Trace.t_lo) );
            ]
        else fields
      in
      ignore (Obs.Log.write log fields)

(* The telemetry frames are answered here, inline, for both processes:
   each exports its own exposition, trace ring and profile, and a
   saturated pool is exactly when they are wanted. Everything else is
   the owner's. *)
let respond service ctx = function
  | Wire.Metrics_text -> Wire.Metrics_text_reply (service.metrics_text ())
  | Wire.Trace_export ->
      Wire.Trace_export_reply
        (if !Obs.Trace.enabled then Obs.Trace.export_string ()
         else "{\"traceEvents\":[],\"dropped\":0}")
  | Wire.Profile_export ->
      Wire.Profile_export_reply (Obs.Profile.export_string ())
  | req -> service.handle ctx req

let serve_request t service ~id ~wire_trace req =
  Atomic.incr t.c_requests;
  let rid = if id <> 0 then id else fresh_rid t in
  let trace = trace_ctx t rid wire_trace in
  let arrival_ns = Obs.Clock.now_ns () in
  let ctx = { rid; arrival_ns; trace; local = service.fresh trace req } in
  let resp =
    if !Obs.Trace.enabled then
      Obs.Trace.span_ctx t.request_span "rid" rid trace (fun () ->
          respond service ctx req)
    else respond service ctx req
  in
  finish_request t service ctx req resp;
  (rid, resp)

let err code fmt =
  Printf.ksprintf (fun message -> Wire.Error_reply { code; message }) fmt

(* One connection's frame loop; returns when the peer closes or the
   framing is lost. *)
let serve_conn t service fd =
  let reply ?(id = 0) ?trace resp =
    Net_io.write_all fd (Wire.encode_response ~id ?trace resp)
  in
  let rec loop () =
    if not (Atomic.get t.stopping) then
      match Net_io.read_exact fd Wire.header_bytes with
      | None -> ()
      | Some raw -> (
          match Wire.decode_header raw with
          | Error (Wire.Bad_header m) ->
              (* framing lost: answer once, then drop the link. The
                 header is complete, so a correct magic means the
                 version byte was the problem *)
              count_bad_frame t;
              reply
                (Wire.Error_reply
                   {
                     code =
                       (if String.starts_with ~prefix:"LC" raw then
                          Wire.Unsupported_version
                        else Wire.Bad_frame);
                     message = m;
                   })
          | Error (Wire.Oversized { tag = _; length }) ->
              (* the length field is trustworthy: drain the payload,
                 answer a typed error naming the offending size, and
                 keep the connection — an oversized shard must not kill
                 its siblings multiplexed on the same link *)
              count_bad_frame t;
              if Net_io.skip_exact fd length then begin
                reply
                  (err Wire.Bad_request
                     "payload of %d bytes exceeds the %d byte cap" length
                     Wire.max_payload);
                loop ()
              end
          | Ok { Wire.tag; length } -> (
              match Net_io.read_exact fd length with
              | None -> ()
              | Some payload ->
                  (match Wire.decode_request_payload ~tag payload with
                  | Error m ->
                      count_bad_frame t;
                      reply (err Wire.Bad_request "%s" m)
                  | Ok (id, wire_trace, req) ->
                      (* the reply echoes the request's id and its trace
                         context, so the caller can pair the response
                         with the trace it started *)
                      let id, resp =
                        serve_request t service ~id ~wire_trace req
                      in
                      reply ~id ?trace:wire_trace resp);
                  loop ()))
  in
  loop ()

(* --- HTTP sidecar ------------------------------------------------------ *)

(* A deliberately minimal HTTP/1.0 responder — enough for a Prometheus
   scraper, a Kubernetes probe or curl: one GET per connection, no
   keep-alive. *)
let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let http_text ~ready body =
  http_response
    ~status:(if ready then "200 OK" else "503 Service Unavailable")
    ~content_type:"text/plain" body

let http_reply service = function
  | "/metrics" ->
      http_response ~status:"200 OK"
        ~content_type:"text/plain; version=0.0.4; charset=utf-8"
        (service.metrics_text ())
  | "/healthz" -> http_text ~ready:true "ok\n"
  | path ->
      Option.value (service.http path)
        ~default:
          (http_response ~status:"404 Not Found" ~content_type:"text/plain"
             "not found\n")

let serve_http service fd =
  (* read up to the end of the request line; headers are ignored *)
  let buf = Bytes.make 8192 '\000' in
  let rec request_line n =
    match Bytes.index_opt buf '\n' with
    | Some i -> Bytes.sub_string buf 0 i
    | None ->
        let k =
          if n = Bytes.length buf then 0
          else Unix.read fd buf n (Bytes.length buf - n)
        in
        if k = 0 then Bytes.sub_string buf 0 n else request_line (n + k)
  in
  Net_io.write_all fd
    (match String.split_on_char ' ' (String.trim (request_line 0)) with
    | [ "GET"; target; _version ] ->
        (* strip any query string: /metrics?x=1 -> /metrics *)
        http_reply service
          (match String.index_opt target '?' with
          | Some i -> String.sub target 0 i
          | None -> target)
    | _ ->
        http_response ~status:"400 Bad Request" ~content_type:"text/plain"
          "only GET is served here\n")

(* --- lifecycle --------------------------------------------------------- *)

(* Thread per connection: [serve] runs on its own system thread and the
   socket closes when it returns or the peer vanishes mid-frame. *)
let accept_loop t sock ~on_accept serve =
  let conn fd =
    Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
    @@ fun () -> try serve fd with Unix.Unix_error _ -> ()
  in
  let rec loop () =
    if not (Atomic.get t.stopping) then
      match Unix.accept sock with
      | fd, _ ->
          on_accept fd;
          ignore (Thread.create conn fd);
          loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ when Atomic.get t.stopping ->
          (* {!stop} closed the listener under us *)
          ()
  in
  loop ()

let stop t =
  if not (Atomic.exchange t.stopping true) then
    List.iter
      (fun s ->
        (try Unix.shutdown s Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        try Unix.close s with Unix.Unix_error _ -> ())
      (t.sock :: Option.to_list t.http_sock)

let run t service =
  (* a peer that disappears between our read and write must surface as
     EPIPE on the write, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let http_thread =
    Option.map
      (fun s ->
        Thread.create
          (fun () -> accept_loop t s ~on_accept:ignore (serve_http service))
          ())
      t.http_sock
  in
  accept_loop t t.sock
    ~on_accept:(fun fd ->
      (* small frames must not sit out a Nagle/delayed-ACK round:
         answers leave as soon as they are written *)
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      Atomic.incr t.c_connections)
    (serve_conn t service);
  Option.iter Thread.join http_thread
