(* End-to-end tests for the verification daemon, all over a loopback
   socket on an ephemeral port: the compiled-verifier cache (warm
   requests must hit it and be measurably faster than cold ones),
   backpressure shedding, per-request deadlines, and the rule that a
   peer speaking garbage gets a typed error — never a hang, never a
   crash. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let with_server config f =
  let t = Server.create { config with Server.port = 0 } in
  let th = Server.start t in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Thread.join th)
    (fun () -> f t (Server.port t))

let with_client port f =
  match Client.connect ~port () with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let call c req =
  match Client.call c req with
  | Ok resp -> resp
  | Error m -> Alcotest.failf "call: transport error %s" m

let expect_error code what = function
  | Wire.Error_reply e when e.code = code -> ()
  | resp ->
      Alcotest.failf "%s: expected %s error, got %s" what
        (Wire.error_code_to_string code)
        (match resp with
        | Wire.Error_reply e -> Wire.error_code_to_string e.code
        | Wire.Proved _ -> "Proved"
        | Wire.Verified _ -> "Verified"
        | Wire.Stats_reply _ -> "Stats_reply"
        | Wire.Metrics_text_reply _ -> "Metrics_text_reply"
        | Wire.Health_reply _ -> "Health_reply"
        | Wire.Drain_reply _ -> "Drain_reply"
        | Wire.Batch_reply _ -> "Batch_reply"
        | Wire.Partition_verified _ -> "Partition_verified"
        | Wire.Sampled_verified _ -> "Sampled_verified"
        | Wire.Trace_export_reply _ -> "Trace_export_reply"
        | Wire.Profile_export_reply _ -> "Profile_export_reply")

(* ------------------------------------------------------------------ *)
(* In-process units: the LRU and the scheme registry. *)

let lru_unit () =
  let l = Lru.create ~capacity:2 in
  Lru.put l "a" 1;
  Lru.put l "b" 2;
  check "a present" true (Lru.find l "a" = Some 1);
  (* b is now least recently used; inserting c must evict it *)
  Lru.put l "c" 3;
  check "b evicted" true (Lru.find l "b" = None);
  check "a survives" true (Lru.find l "a" = Some 1);
  check "c present" true (Lru.find l "c" = Some 3);
  check_int "length" 2 (Lru.length l);
  check_int "hits" 3 (Lru.hits l);
  (* capacity 0 is the cache-disabled mode the server maps
     --cache-size=0 to: put is a no-op, every find is a miss *)
  let z = Lru.create ~capacity:0 in
  Lru.put z "x" 1;
  check "capacity 0 never stores" true (Lru.find z "x" = None);
  check_int "capacity 0 stays empty" 0 (Lru.length z);
  check "negative capacity rejected" true
    (match Lru.create ~capacity:(-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let registry_unit () =
  check "eulerian registered" true
    (match Registry.find "eulerian" with
    | Some e -> e.Registry.name = "eulerian"
    | None -> false);
  check "unknown scheme absent" true (Registry.find "no-such-scheme" = None);
  let names = List.map (fun e -> e.Registry.name) Registry.all in
  check "names unique" true
    (List.length names = List.length (List.sort_uniq compare names))

(* ------------------------------------------------------------------ *)
(* Loopback: prove/verify, the compiled-verifier cache. *)

let loopback_cache () =
  with_server { Server.default_config with jobs = 2; cache_size = 8 }
  @@ fun t port ->
  with_client port @@ fun c ->
  (* typed errors for bad scheme / bad graph *)
  expect_error Wire.Unknown_scheme "unknown scheme"
    (call c (Wire.Prove { scheme = "no-such-scheme"; graph6 = "A_" }));
  expect_error Wire.Bad_graph "bad graph"
    (call c (Wire.Prove { scheme = "eulerian"; graph6 = "~?" }));
  (* prove a yes-instance, then feed the proof back through verify;
     bipartite's proof is a 2-colouring, so corrupting it is visible
     (eulerian would accept any proof — its verifier reads no bits) *)
  let g6 = Graph6.encode (Builders.cycle 64) in
  let proof =
    match call c (Wire.Prove { scheme = "bipartite"; graph6 = g6 }) with
    | Wire.Proved (Some p) -> p
    | Wire.Proved None -> Alcotest.fail "prover called C64 a no-instance"
    | r ->
        expect_error Wire.Internal "prove" r;
        assert false
  in
  (match call c (Wire.Verify { scheme = "bipartite"; graph6 = g6; proof }) with
  | Wire.Verified { accepted; rejecting } ->
      check "honest proof accepted" true accepted;
      check "no rejecting nodes" true (rejecting = [])
  | r -> expect_error Wire.Internal "verify" r);
  (* flip one node's colour: it and its neighbours must reject *)
  let bad = Proof.set proof 0 (Bits.flip (Proof.get proof 0) 0) in
  (match
     call c (Wire.Verify { scheme = "bipartite"; graph6 = g6; proof = bad })
   with
  | Wire.Verified { accepted; rejecting } ->
      check "corrupt proof rejected" false accepted;
      check "some node rejects" true (rejecting <> [])
  | r -> expect_error Wire.Internal "verify corrupt" r);
  (* every request after the first prove reused the compiled image;
     the misses are the first C64 prove and the bad-graph request
     (its cache lookup happens before the graph6 bytes are parsed) *)
  let s = Server.stats t in
  check "cache hits counted" true (s.Server.cache_hits >= 2);
  check_int "two cache misses" 2 s.Server.cache_misses;
  check_int "one cached entry" 1 s.Server.cache_entries

(* Warm requests skip the graph6 decode and the compile. Counted, not
   timed: a miss serves straight from the CSR rows, so on C2048 a cold
   request is no longer several times a warm one. A miss is the only
   branch that decodes, and it counts itself in [cache_misses] before
   decoding; every compile, the CSR miss path's included, counts in
   [simulator.compiles]. *)
let warm_skips_decode () =
  with_server { Server.default_config with jobs = 1; cache_size = 8 }
  @@ fun t port ->
  with_client port @@ fun c ->
  let g6 = Graph6.encode (Builders.cycle 2048) in
  let verify () =
    match
      call c
        (Wire.Verify { scheme = "bipartite"; graph6 = g6; proof = Proof.empty })
    with
    | Wire.Verified { accepted; _ } ->
        check "empty proof rejected" false accepted
    | r -> expect_error Wire.Internal "verify" r
  in
  let compiles () =
    Obs.Metrics.count (Obs.Metrics.snapshot ()) "simulator.compiles"
  in
  let metrics = !Obs.Metrics.enabled in
  Obs.Metrics.enabled := true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.enabled := metrics)
    (fun () ->
      let c0 = compiles () in
      verify ();
      let c1 = compiles () in
      List.iter verify [ (); (); () ];
      let s = Server.stats t in
      check_int "cold run compiled once" 1 (c1 - c0);
      check_int "cold run decoded once" 1 s.Server.cache_misses;
      check_int "warm runs all hit" 3 s.Server.cache_hits;
      check_int "warm runs compiled nothing" c1 (compiles ()))

(* A cold Prove serves the provers from the CSR rows: for none of the
   five bare-graph schemes does the miss build a [Graph.t], which every
   build counts in [instance.graphs_built]. The control shows the
   counter counts: asking the image's instance for its graph builds
   one. *)
let prove_builds_no_graph () =
  with_server { Server.default_config with jobs = 1; cache_size = 8 }
  @@ fun _t port ->
  with_client port @@ fun c ->
  let built () =
    Obs.Metrics.count (Obs.Metrics.snapshot ()) "instance.graphs_built"
  in
  let metrics = !Obs.Metrics.enabled in
  Obs.Metrics.enabled := true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.enabled := metrics)
    (fun () ->
      List.iter
        (fun (scheme, g) ->
          let b0 = built () in
          (match call c (Wire.Prove { scheme; graph6 = Graph6.encode g }) with
          | Wire.Proved (Some _) -> ()
          | r -> expect_error Wire.Internal ("prove " ^ scheme) r);
          check_int (scheme ^ ": no graph built") b0 (built ()))
        [
          ("bipartite", Builders.grid 8 8);
          ("non-bipartite", Random_graphs.connected_gnp (Random.State.make [| 3 |]) 65 0.1);
          ("odd-n", Random_graphs.connected_gnp (Random.State.make [| 4 |]) 65 0.1);
          ("even-n", Builders.grid 8 8);
          ("eulerian", Builders.cycle 64);
        ];
      let b0 = built () in
      (match Graph6.decode_csr (Graph6.encode (Builders.cycle 64)) with
      | Ok csr ->
          ignore (Instance.graph (Simulator.compile_csr csr))
      | Error e -> Alcotest.fail e);
      check_int "the control builds one" (b0 + 1) (built ()))

(* ------------------------------------------------------------------ *)
(* Backpressure and deadlines: production failure modes must surface
   as typed errors, immediately, on a live connection. *)

let overload_sheds () =
  with_server { Server.default_config with jobs = 1; max_queue = 0 }
  @@ fun t port ->
  with_client port @@ fun c ->
  let g6 = Graph6.encode (Builders.cycle 16) in
  expect_error Wire.Overloaded "queue bound 0 sheds every prove"
    (call c (Wire.Prove { scheme = "eulerian"; graph6 = g6 }));
  (* stats is served inline on the connection thread, so it still
     answers while the compute path sheds *)
  (match call c Wire.Stats with
  | Wire.Stats_reply s -> check "shed counted in stats" true (s.overloaded >= 1)
  | r -> expect_error Wire.Internal "stats" r);
  check "server counter agrees" true ((Server.stats t).Server.overloaded >= 1)

let deadline_exceeded () =
  (* 1 ms is far below a cold prove of a 2048-node graph (decode,
     compile, the prover's graph and the proof), so each request
     deterministically trips the completion checkpoint; distinct sizes
     keep the second request from riding the first one's cache entry *)
  with_server { Server.default_config with jobs = 1; deadline_ms = 1 }
  @@ fun t port ->
  with_client port @@ fun c ->
  List.iter
    (fun n ->
      expect_error Wire.Deadline_exceeded
        (Printf.sprintf "cold prove of C%d under a 1 ms deadline" n)
        (call c
           (Wire.Prove
              { scheme = "eulerian"; graph6 = Graph6.encode (Builders.cycle n) })))
    [ 2048; 2049 ];
  (* the connection survives and undeadlined endpoints still work *)
  (match call c Wire.Stats with
  | Wire.Stats_reply s ->
      check "deadline misses counted" true (s.deadline_exceeded >= 2)
  | r -> expect_error Wire.Internal "stats" r);
  check "server counter agrees" true
    ((Server.stats t).Server.deadline_exceeded >= 2)

(* ------------------------------------------------------------------ *)
(* Raw-socket abuse: garbage frames, wrong version, garbage payload. *)

let read_exact fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off = len then Some (Bytes.to_string buf)
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> None
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_reply fd =
  match read_exact fd Wire.header_bytes with
  | None -> Alcotest.fail "connection closed before a response"
  | Some raw -> (
      match Wire.decode_header raw with
      | Error e ->
          Alcotest.failf "bad response header: %s" (Wire.header_error_to_string e)
      | Ok { Wire.tag; length } -> (
          match read_exact fd length with
          | None -> Alcotest.fail "truncated response"
          | Some payload -> Wire.decode_response_payload ~tag payload))

let read_response fd =
  match read_reply fd with
  | Ok (_, _, r) -> r
  | Error m -> Alcotest.failf "bad response payload: %s" m

let with_raw_socket port f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  f fd

let raw_frame ~version ~tag payload =
  let len = String.length payload in
  let b = Buffer.create (8 + len) in
  Buffer.add_string b "LC";
  Buffer.add_char b (Char.chr version);
  Buffer.add_char b (Char.chr tag);
  Buffer.add_char b (Char.chr ((len lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((len lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((len lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (len land 0xff));
  Buffer.add_string b payload;
  Buffer.contents b

(* Both wire endpoints frame through [Frame_server]: run a framing
   test against a bare daemon and against a router in front of one.
   [f] gets the endpoint's port and its bad-frame count; bad frames
   sent to the router must never reach the daemon behind it. *)
let on_each_endpoint f =
  with_server Server.default_config (fun t port ->
      f ~port ~bad_frames:(fun () -> (Server.stats t).Server.bad_frames));
  with_server Server.default_config @@ fun t daemon_port ->
  let r =
    Router.create
      {
        Router.default_config with
        port = 0;
        backends = [ ("127.0.0.1", daemon_port) ];
        probe_interval_ms = 0;
      }
  in
  let th = Router.start r in
  Fun.protect
    ~finally:(fun () ->
      Router.stop r;
      Thread.join th)
    (fun () ->
      f ~port:(Router.port r)
        ~bad_frames:(fun () -> (Router.stats r).Router.bad_frames);
      check_int "no bad frame reached the daemon" 0
        (Server.stats t).Server.bad_frames)

let garbage_frames () =
  on_each_endpoint @@ fun ~port ~bad_frames ->
  (* pure noise: one Bad_frame reply, then the server drops the link *)
  with_raw_socket port (fun fd ->
      ignore (Unix.write_substring fd "GARBAGE!" 0 8);
      (match read_response fd with
      | Wire.Error_reply { code = Wire.Bad_frame; _ } -> ()
      | r -> expect_error Wire.Bad_frame "garbage" r);
      check "connection closed after garbage" true
        (read_exact fd 1 = None));
  (* right magic, another version — a future one, or a well-formed
     frame of the retired version 1: the typed answer, then drop *)
  List.iter
    (fun frame ->
      with_raw_socket port (fun fd ->
          ignore (Unix.write_substring fd frame 0 (String.length frame));
          (match read_response fd with
          | Wire.Error_reply { code = Wire.Unsupported_version; _ } -> ()
          | r -> expect_error Wire.Unsupported_version "version" r);
          check "connection closed after version mismatch" true
            (read_exact fd 1 = None)))
    [
      raw_frame ~version:(Wire.protocol_version + 1) ~tag:5 "";
      (* a v1 Stats frame: no id prefix, empty body *)
      raw_frame ~version:1 ~tag:(Wire.request_tag Wire.Stats) "";
    ];
  (* a well-formed frame of the retired version 2, whose proof tables
     carried node ids: the same typed answer and drop. Its 8-byte
     payload is still unread when the endpoint closes, so the close
     may arrive as a reset rather than end-of-stream *)
  with_raw_socket port (fun fd ->
      let frame =
        raw_frame ~version:2 ~tag:(Wire.request_tag Wire.Stats)
          (String.make Wire.id_bytes '\x00')
      in
      ignore (Unix.write_substring fd frame 0 (String.length frame));
      (match read_response fd with
      | Wire.Error_reply { code = Wire.Unsupported_version; _ } -> ()
      | r -> expect_error Wire.Unsupported_version "v2 frame" r);
      check "connection closed after a v2 frame" true
        (match read_exact fd 1 with
        | None -> true
        | Some _ -> false
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true));
  (* well-framed but undecodable payload: Bad_request, and the
     connection keeps working afterwards *)
  with_raw_socket port (fun fd ->
      let frame = raw_frame ~version:Wire.protocol_version ~tag:1 "abc" in
      ignore (Unix.write_substring fd frame 0 (String.length frame));
      (match read_response fd with
      | Wire.Error_reply { code = Wire.Bad_request; _ } -> ()
      | r -> expect_error Wire.Bad_request "payload" r);
      let stats = Wire.encode_request Wire.Stats in
      ignore (Unix.write_substring fd stats 0 (String.length stats));
      match read_response fd with
      | Wire.Stats_reply _ -> ()
      | r -> expect_error Wire.Internal "stats after bad payload" r);
  check_int "bad frames counted" 5 (bad_frames ())

(* The retired forge (0x03) and catalog (0x05) request tags: each is
   answered Bad_request by the endpoint on [port] itself, and the
   connection stays in sync for the next frame. The cluster tests run
   this against a router. *)
let retired_tags_refused port =
  with_raw_socket port @@ fun fd ->
  let send frame = ignore (Unix.write_substring fd frame 0 (String.length frame)) in
  List.iter
    (fun tag ->
      send
        (raw_frame ~version:Wire.protocol_version ~tag
           (String.make Wire.id_bytes '\x00'));
      (match read_response fd with
      | Wire.Error_reply { code = Wire.Bad_request; _ } -> ()
      | r -> expect_error Wire.Bad_request (Printf.sprintf "tag 0x%02x" tag) r);
      send (Wire.encode_request Wire.Health);
      match read_response fd with
      | Wire.Health_reply _ -> ()
      | r -> expect_error Wire.Internal "health after a retired tag" r)
    [ 0x03; 0x05 ]

let retired_tags_answered () =
  with_server Server.default_config @@ fun _t port -> retired_tags_refused port

(* ------------------------------------------------------------------ *)
(* The load generator against a live server: every response must be
   semantically ok and repeated graphs must hit the cache. *)

let loadgen_loopback () =
  with_server { Server.default_config with jobs = 2 } @@ fun _t port ->
  match
    Client.loadgen ~port ~connections:2 ~requests:10 ~mix:(1, 4, 0)
      ~scheme:"eulerian" ~sizes:[ 24; 32 ] ()
  with
  | Error m -> Alcotest.failf "loadgen: %s" m
  | Ok r ->
      check_int "all requests ok" 20 r.Client.ok;
      check_int "no errors" 0 r.Client.errors;
      check "throughput positive" true (r.Client.throughput_rps > 0.);
      (match r.Client.server with
      | None -> Alcotest.fail "loadgen fetched no server stats"
      | Some s ->
          check "repeated graphs hit the cache" true (s.Wire.cache_hits > 0);
          check_int "one compile per size" 2 s.Wire.cache_misses);
      (* the CI artifact must be one well-formed JSON object; a cheap
         structural sanity check keeps this test dependency-free *)
      let json = Client.report_json r in
      check "json nonempty object" true
        (String.length json > 2 && json.[0] = '{'
        && json.[String.length json - 1] = '}')

(* ------------------------------------------------------------------ *)
(* Telemetry: correlation ids, health/readiness, the Prometheus
   exposition, the HTTP sidecar, structured logs, the slow-request
   recorder and the reset guard. *)

let correlation_ids () =
  with_server Server.default_config @@ fun _t port ->
  with_client port @@ fun c ->
  (* an explicit id is echoed on the response *)
  (match Client.call_id c ~id:777 Wire.Stats with
  | Ok (id, Wire.Stats_reply _) -> check_int "explicit id echoed" 777 id
  | Ok (_, r) -> expect_error Wire.Internal "stats" r
  | Error m -> Alcotest.failf "call_id: %s" m);
  (* id 0 means "assign me one": the server picks a nonzero id *)
  (match Client.call_id c ~id:0 Wire.Health with
  | Ok (id, Wire.Health_reply _) ->
      check "server assigns a nonzero id" true (id > 0)
  | Ok (_, r) -> expect_error Wire.Internal "health" r
  | Error m -> Alcotest.failf "call_id: %s" m);
  (* a compute request's id survives the pool round trip too *)
  let g6 = Graph6.encode (Builders.cycle 16) in
  match Client.call_id c ~id:4242 (Wire.Prove { scheme = "eulerian"; graph6 = g6 }) with
  | Ok (id, Wire.Proved _) -> check_int "compute id echoed" 4242 id
  | Ok (_, r) -> expect_error Wire.Internal "prove" r
  | Error m -> Alcotest.failf "call_id: %s" m

let health_readiness () =
  (* a normally-configured server is ready *)
  with_server Server.default_config (fun _t port ->
      with_client port @@ fun c ->
      match call c Wire.Health with
      | Wire.Health_reply h ->
          check "ready" true h.Wire.ready;
          check_int "nothing pending" 0 h.Wire.pending;
          check_int "max_queue" Server.default_config.Server.max_queue
            h.Wire.max_queue
      | r -> expect_error Wire.Internal "health" r);
  (* max_queue 0 means the next compute request would be shed: the
     readiness probe must say so deterministically *)
  with_server { Server.default_config with max_queue = 0 } (fun _t port ->
      with_client port @@ fun c ->
      (match call c Wire.Health with
      | Wire.Health_reply h ->
          check "saturated server not ready" false h.Wire.ready
      | r -> expect_error Wire.Internal "health" r))

let drain_cycle () =
  with_server Server.default_config @@ fun _t port ->
  with_client port @@ fun c ->
  (* enabling drain is acknowledged and flips readiness... *)
  (match call c (Wire.Drain { enable = true }) with
  | Wire.Drain_reply { draining; _ } -> check "drain acknowledged" true draining
  | r -> expect_error Wire.Internal "drain" r);
  (match call c Wire.Health with
  | Wire.Health_reply h -> check "draining server not ready" false h.Wire.ready
  | r -> expect_error Wire.Internal "health while draining" r);
  (* ...but the server keeps serving compute — drain is advisory *)
  let g6 = Graph6.encode (Builders.cycle 16) in
  (match call c (Wire.Prove { scheme = "eulerian"; graph6 = g6 }) with
  | Wire.Proved _ -> ()
  | r -> expect_error Wire.Internal "prove while draining" r);
  (* disabling restores readiness *)
  (match call c (Wire.Drain { enable = false }) with
  | Wire.Drain_reply { draining; _ } -> check "drain cleared" false draining
  | r -> expect_error Wire.Internal "undrain" r);
  match call c Wire.Health with
  | Wire.Health_reply h -> check "ready again" true h.Wire.ready
  | r -> expect_error Wire.Internal "health after undrain" r

(* With the Obs.Metrics registry on, its snapshot joins the exposition:
   no (name, labels) sample may then appear twice, and no family may be
   declared twice. *)
let metrics_text_endpoint () =
  Obs.enable ~metrics:true ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  with_server { Server.default_config with jobs = 2 } @@ fun _t port ->
  with_client port @@ fun c ->
  let g6 = Graph6.encode (Builders.cycle 24) in
  (match call c (Wire.Prove { scheme = "eulerian"; graph6 = g6 }) with
  | Wire.Proved _ -> ()
  | r -> expect_error Wire.Internal "prove" r);
  (match call c (Wire.Prove { scheme = "eulerian"; graph6 = g6 }) with
  | Wire.Proved _ -> ()
  | r -> expect_error Wire.Internal "prove" r);
  let text =
    match call c Wire.Metrics_text with
    | Wire.Metrics_text_reply text -> text
    | r ->
        expect_error Wire.Internal "metrics_text" r;
        assert false
  in
  (* every line is either a comment or a parseable sample — validated
     line by line through the same parser lcp top uses *)
  let samples = Hashtbl.create 64 and types = Hashtbl.create 64 in
  List.iteri
    (fun i line ->
      if String.starts_with ~prefix:"# TYPE " line then begin
        let family = List.nth (String.split_on_char ' ' line) 2 in
        if Hashtbl.mem types family then
          Alcotest.failf "family %s declared twice" family;
        Hashtbl.add types family ()
      end
      else if line <> "" && line.[0] <> '#' then
        match Obs.Export.parse_sample line with
        | Some (name, labels, _) ->
            let key = (name, List.sort compare labels) in
            if Hashtbl.mem samples key then
              Alcotest.failf "sample %s%s appears twice" name
                (String.concat ""
                   (List.map (fun (k, v) -> Printf.sprintf "{%s=%s}" k v) labels));
            Hashtbl.add samples key ()
        | None -> Alcotest.failf "line %d unparseable: %S" i line)
    (String.split_on_char '\n' text);
  let find name labels = Obs.Export.find_sample text ~name ~labels in
  (match find "lcp_server_requests_total" [] with
  | Some v -> check "requests_total >= 2" true (v >= 2.0)
  | None -> Alcotest.fail "lcp_server_requests_total missing");
  (* the rolling window saw both requests *)
  (match find "lcp_server_request_us_count" [ ("window", "60s") ] with
  | Some v -> check "60s window count >= 2" true (v >= 2.0)
  | None -> Alcotest.fail "60s window summary missing");
  (* all three quantiles are exposed for every horizon *)
  List.iter
    (fun w ->
      List.iter
        (fun q ->
          if find "lcp_server_request_us" [ ("window", w); ("quantile", q) ]
             = None
          then Alcotest.failf "missing quantile %s for window %s" q w)
        [ "0.5"; "0.95"; "0.99" ])
    [ "1s"; "10s"; "60s" ];
  (* the second prove hit the cache, so the ratio is positive *)
  (match find "lcp_server_cache_hit_ratio" [ ("window", "60s") ] with
  | Some v -> check "hit ratio > 0" true (v > 0.0)
  | None -> Alcotest.fail "cache hit ratio missing");
  (match find "lcp_server_ready" [] with
  | Some v -> check "ready gauge" true (v = 1.0)
  | None -> Alcotest.fail "ready gauge missing")

(* one-shot HTTP GET against the sidecar; returns (status line, body) *)
let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 1024 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  let all = Buffer.contents buf in
  let status =
    match String.index_opt all '\r' with
    | Some i -> String.sub all 0 i
    | None -> all
  in
  let body =
    let rec split i =
      if i + 4 > String.length all then ""
      else if String.sub all i 4 = "\r\n\r\n" then
        String.sub all (i + 4) (String.length all - i - 4)
      else split (i + 1)
    in
    split 0
  in
  (status, body)

let http_sidecar () =
  with_server { Server.default_config with http_port = 0 } (fun t port ->
      check "sidecar got a port" true (Server.http_port t >= 0);
      let hp = Server.http_port t in
      (* issue one request so the counters are nonzero *)
      with_client port (fun c ->
          match call c Wire.Stats with
          | Wire.Stats_reply _ -> ()
          | r -> expect_error Wire.Internal "stats" r);
      let status, body = http_get hp "/metrics" in
      check "GET /metrics is 200" true
        (String.length status >= 12 && String.sub status 9 3 = "200");
      (match Obs.Export.find_sample body ~name:"lcp_server_requests_total" ~labels:[] with
      | Some v -> check "scraped requests_total >= 1" true (v >= 1.0)
      | None -> Alcotest.fail "requests_total not scraped over HTTP");
      let status, _ = http_get hp "/metrics.json" in
      check "GET /metrics.json is 404" true (String.sub status 9 3 = "404");
      let status, _ = http_get hp "/healthz" in
      check "GET /healthz is 200" true (String.sub status 9 3 = "200");
      let status, _ = http_get hp "/readyz" in
      check "GET /readyz is 200 when ready" true (String.sub status 9 3 = "200");
      let status, _ = http_get hp "/no-such-path" in
      check "unknown path is 404" true (String.sub status 9 3 = "404"));
  (* saturated server: readiness must flip to 503 while liveness stays 200 *)
  with_server
    { Server.default_config with http_port = 0; max_queue = 0 }
    (fun t _port ->
      let hp = Server.http_port t in
      let status, _ = http_get hp "/readyz" in
      check "GET /readyz is 503 when saturated" true
        (String.sub status 9 3 = "503");
      let status, _ = http_get hp "/healthz" in
      check "liveness stays 200" true (String.sub status 9 3 = "200"))

let structured_log () =
  let path = Filename.temp_file "lcp_log" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let log = Obs.Log.to_file path in
  with_server
    { Server.default_config with log = Some log }
    (fun _t port ->
      with_client port @@ fun c ->
      let g6 = Graph6.encode (Builders.cycle 16) in
      (match Client.call_id c ~id:9001 (Wire.Prove { scheme = "eulerian"; graph6 = g6 }) with
      | Ok (_, Wire.Proved _) -> ()
      | Ok (_, r) -> expect_error Wire.Internal "prove" r
      | Error m -> Alcotest.failf "prove: %s" m);
      expect_error Wire.Unknown_scheme "unknown scheme"
        (call c (Wire.Prove { scheme = "nope"; graph6 = g6 })));
  Obs.Log.close log;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  check_int "one log line per request" 2 (List.length lines);
  let has sub line = contains ~sub line in
  let first = List.nth lines 0 and second = List.nth lines 1 in
  check "first line carries the request id" true (has "\"rid\":9001" first);
  check "first line is ok" true (has "\"outcome\":\"ok\"" first);
  check "first line records the cache miss" true (has "\"cache\":\"miss\"" first);
  check "first line has timings" true
    (has "\"queue_wait_ns\":" first && has "\"compute_ns\":" first);
  check "error line carries the code" true
    (has "\"outcome\":\"unknown-scheme\"" second)

let slow_recorder () =
  let dir = Filename.temp_file "lcp_slow" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let cleanup () =
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Obs.enable ~metrics:false ~trace:true ();
  Fun.protect ~finally:(fun () -> Obs.disable ()) @@ fun () ->
  with_server
    { Server.default_config with slow_ms = 1; obs_dir = Some dir }
    (fun t port ->
      with_client port @@ fun c ->
      (* a cold prove of a 2048-cycle decodes, compiles, builds the
         prover's graph and proves for well over 1 ms — deterministically
         the one offending request *)
      let g6 = Graph6.encode (Builders.cycle 2048) in
      (match Client.call_id c ~id:31337 (Wire.Prove { scheme = "eulerian"; graph6 = g6 }) with
      | Ok (_, Wire.Proved _) -> ()
      | Ok (_, r) -> expect_error Wire.Internal "prove" r
      | Error m -> Alcotest.failf "prove: %s" m);
      let s = Server.stats t in
      check "slow request counted" true (s.Server.slow_requests >= 1);
      let slices =
        List.filter
          (String.starts_with ~prefix:"slow-31337-")
          (Array.to_list (Sys.readdir dir))
      in
      check "slice dumped under the request's id" true (slices <> []);
      (* exactly one dump per offending request: files and counter agree *)
      check_int "one file per slow request" s.Server.slow_requests
        (Array.length (Sys.readdir dir));
      (* the dump is a trace JSON with the dropped footer *)
      let ic = open_in (Filename.concat dir (List.hd slices)) in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      check "dump carries the dropped footer" true
        (contains ~sub:"\"dropped\":" body));
  (* without an obs_dir the slow request still counts, and no slice
     lands anywhere — in particular not in the working directory *)
  with_server { Server.default_config with slow_ms = 1 } (fun t port ->
      with_client port @@ fun c ->
      let g6 = Graph6.encode (Builders.cycle 2048) in
      (match Client.call_id c ~id:31338 (Wire.Prove { scheme = "eulerian"; graph6 = g6 }) with
      | Ok (_, Wire.Proved _) -> ()
      | Ok (_, r) -> expect_error Wire.Internal "prove" r
      | Error m -> Alcotest.failf "prove: %s" m);
      check "slow request counted without a dir" true
        ((Server.stats t).Server.slow_requests >= 1);
      check "no slice in the working directory" false
        (Array.exists
           (String.starts_with ~prefix:"slow-31338-")
           (Sys.readdir ".")))

(* The rid is the client's choice: two connections that both send rid
   1 must still leave one slice per slow request, not overwrite each
   other's. Every graph is distinct, so every request is a cold prove
   (decode, compile, the prover's graph, the proof) well over 1 ms. *)
let slow_recorder_reused_rid () =
  let dir = Filename.temp_file "lcp_slow" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let cleanup () =
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Obs.enable ~metrics:false ~trace:true ();
  Fun.protect ~finally:(fun () -> Obs.disable ()) @@ fun () ->
  with_server
    { Server.default_config with slow_ms = 1; obs_dir = Some dir }
    (fun t port ->
      List.iter
        (fun sizes ->
          with_client port @@ fun c ->
          List.iter
            (fun n ->
              let g6 = Graph6.encode (Builders.cycle n) in
              match
                Client.call_id c ~id:1
                  (Wire.Prove { scheme = "eulerian"; graph6 = g6 })
              with
              | Ok (_, Wire.Proved _) -> ()
              | Ok (_, r) -> expect_error Wire.Internal "prove" r
              | Error m -> Alcotest.failf "prove: %s" m)
            sizes)
        [ [ 2048; 2050 ]; [ 2052; 2054 ] ];
      let s = Server.stats t in
      check "repeated rid requests counted slow" true
        (s.Server.slow_requests >= 2);
      check_int "one file per slow request" s.Server.slow_requests
        (Array.length (Sys.readdir dir)))

let reset_guard () =
  with_server Server.default_config (fun _t _port ->
      check "reset blocked while the pool is live" true
        (match Obs.Metrics.reset () with
        | exception Invalid_argument _ -> true
        | () -> false));
  (* with_server joined the accept loop: the guard is released *)
  match Obs.Metrics.reset () with
  | () -> ()
  | exception Invalid_argument m ->
      Alcotest.failf "reset still guarded after shutdown: %s" m

let loadgen_error_breakdown () =
  (* against a shedding server every compute request comes back
     Overloaded: the breakdown must name the code, and ids must line
     up (the loadgen checks every echo) *)
  with_server { Server.default_config with max_queue = 0 } @@ fun _t port ->
  match
    Client.loadgen ~port ~connections:2 ~requests:5 ~mix:(1, 0, 0)
      ~scheme:"eulerian" ~sizes:[ 16 ] ()
  with
  | Error m ->
      (* the setup pass itself is shed, which is also a fine outcome —
         it proves the typed error reached the client *)
      check "setup failed with the typed code" true
        (contains ~sub:"overloaded" m)
  | Ok r ->
      check_int "no request succeeded" 0 r.Client.ok;
      check "overloaded dominates the breakdown" true
        (match List.assoc_opt "overloaded" r.Client.errors_by_code with
        | Some n -> n = r.Client.errors
        | None -> false);
      check "ids all echoed" false
        (List.mem_assoc "id_mismatch" r.Client.errors_by_code)

(* A stub endpoint that answers every Prove (and every op of a Batch)
   with a proof, but under correlation id + 1 — request/response
   framing that slipped. Anything else gets an error reply. *)
let with_off_by_one_stub f =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 16;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let stop = Atomic.make false in
  let rec serve fd =
    let frame =
      Option.bind (read_exact fd Wire.header_bytes) (fun raw ->
          match Wire.decode_header raw with
          | Error _ -> None
          | Ok { Wire.tag; length } ->
              Option.map
                (fun payload -> Wire.decode_request_payload ~tag payload)
                (read_exact fd length))
    in
    match frame with
    | None | Some (Error _) -> ()
    | Some (Ok (id, _, req)) ->
        let resp =
          match req with
          | Wire.Prove _ -> Wire.Proved (Some Proof.empty)
          | Wire.Batch { ops; _ } ->
              Wire.Batch_reply
                (List.map (fun _ -> Wire.Item_proved (Some Proof.empty)) ops)
          | _ -> Wire.Error_reply { code = Wire.Internal; message = "stub" }
        in
        let out = Wire.encode_response ~id:(id + 1) resp in
        ignore (Unix.write_substring fd out 0 (String.length out));
        serve fd
  in
  let rec accept_loop () =
    if not (Atomic.get stop) then begin
      (match Unix.select [ lsock ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ ->
          let fd, _ = Unix.accept lsock in
          ignore
            (Thread.create
               (fun () ->
                 Fun.protect
                   ~finally:(fun () -> Unix.close fd)
                   (fun () -> try serve fd with Unix.Unix_error _ -> ()))
               ()));
      accept_loop ()
    end
  in
  let th = Thread.create accept_loop () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join th;
      Unix.close lsock)
    (fun () -> f port)

let loadgen_id_mismatch () =
  with_off_by_one_stub @@ fun port ->
  List.iter
    (fun batch ->
      match
        Client.loadgen ~port ~batch ~connections:2 ~requests:3 ~mix:(1, 0, 0)
          ~scheme:"eulerian" ~sizes:[ 16 ] ()
      with
      | Error m -> Alcotest.failf "loadgen (batch %d): %s" batch m
      | Ok r ->
          let ops = 2 * 3 * batch in
          check_int (Printf.sprintf "batch %d: no op ok" batch) 0 r.Client.ok;
          check_int (Printf.sprintf "batch %d: every op failed" batch) ops
            r.Client.errors;
          check
            (Printf.sprintf "batch %d: all id mismatches" batch)
            true
            (r.Client.errors_by_code = [ ("id_mismatch", ops) ]))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Batch frames end to end, and the disk cache. *)

let batch_e2e () =
  with_server { Server.default_config with jobs = 1; cache_size = 8 }
  @@ fun t port ->
  with_client port @@ fun c ->
  let g6 = Graph6.encode (Builders.cycle 64) in
  let proof =
    match call c (Wire.Prove { scheme = "bipartite"; graph6 = g6 }) with
    | Wire.Proved (Some p) -> p
    | r ->
        expect_error Wire.Internal "prove" r;
        assert false
  in
  (* mixed kinds, repeated ops (the coalescing path), one shared
     graph and one shared proof-table entry *)
  let req =
    Wire.Batch
      {
        graphs = [ g6 ];
        proofs = [ proof ];
        ops =
          [
            Wire.Op_prove { scheme = "bipartite"; graph = 0 };
            Wire.Op_verify { scheme = "bipartite"; graph = 0; proof = 0 };
            Wire.Op_prove { scheme = "bipartite"; graph = 0 };
            Wire.Op_verify { scheme = "eulerian"; graph = 0; proof = 0 };
          ];
      }
  in
  (match call c req with
  | Wire.Batch_reply
      [
        Wire.Item_proved (Some p1);
        Wire.Item_verified { accepted = true; _ };
        Wire.Item_proved (Some p2);
        Wire.Item_verified { accepted = true; _ };
      ] ->
      (* proving is deterministic, so the coalesced duplicate agrees *)
      check "duplicate ops agree" true (Proof.equal p1 p2)
  | Wire.Batch_reply items ->
      Alcotest.failf "wrong batch shape (%d items)" (List.length items)
  | r -> expect_error Wire.Internal "batch" r);
  let s = Server.stats t in
  check_int "batch ops counted" 4 s.Server.batch_ops;
  (* a batch of one must answer exactly like the plain request *)
  let plain = call c (Wire.Verify { scheme = "bipartite"; graph6 = g6; proof }) in
  (match
     call c
       (Wire.Batch
          {
            graphs = [ g6 ];
            proofs = [ proof ];
            ops =
              [ Wire.Op_verify { scheme = "bipartite"; graph = 0; proof = 0 } ];
          })
   with
  | Wire.Batch_reply [ Wire.Item_verified { accepted; rejecting } ] ->
      check "batch-of-1 = plain request" true
        (Wire.equal_response plain (Wire.Verified { accepted; rejecting }))
  | r -> expect_error Wire.Internal "batch-of-1" r)

let batch_corrupt_op_isolated () =
  with_server { Server.default_config with jobs = 1 } @@ fun _t port ->
  with_client port @@ fun c ->
  let g6 = Graph6.encode (Builders.cycle 32) in
  let bad_slot = 13 in
  let ops =
    List.init 64 (fun i ->
        if i = bad_slot then
          Wire.Op_prove { scheme = "no-such-scheme"; graph = 0 }
        else Wire.Op_prove { scheme = "eulerian"; graph = 0 })
  in
  match call c (Wire.Batch { graphs = [ g6 ]; proofs = []; ops }) with
  | Wire.Batch_reply items ->
      check_int "64 items back" 64 (List.length items);
      List.iteri
        (fun i item ->
          match item with
          | Wire.Item_error { code; _ } when i = bad_slot ->
              check "bad op gets its own typed error" true
                (code = Wire.Unknown_scheme)
          | Wire.Item_proved (Some _) when i <> bad_slot -> ()
          | _ -> Alcotest.failf "item %d has the wrong shape" i)
        items
  | r -> expect_error Wire.Internal "corrupt-op batch" r

let with_tmp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let cleanup () =
    Array.iter
      (fun file ->
        try Sys.remove (Filename.concat dir file) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () -> f dir)

(* the compiled images a cache directory holds *)
let cache_files dir =
  List.filter
    (fun f -> Filename.check_suffix f ".lcpc")
    (Array.to_list (Sys.readdir dir))

let diskcache_unit () =
  with_tmp_dir "lcp_cache" @@ fun dir ->
  let graph = Builders.cycle 48 in
  let g6 = Graph6.encode graph in
  let compiled = Simulator.compile (Instance.of_graph graph) in
  let key = "bipartite/" ^ Digest.to_hex (Digest.string g6) in
  check "miss before store" true
    (Diskcache.load ~dir ~key ~scheme:"bipartite" ~graph6:g6 = None);
  Diskcache.store ~dir ~key ~scheme:"bipartite" ~graph6:g6 compiled;
  (match Diskcache.load ~dir ~key ~scheme:"bipartite" ~graph6:g6 with
  | None -> Alcotest.fail "stored image failed to load"
  | Some c ->
      (* the reloaded image must drive the verifier identically *)
      let scheme =
        match Registry.find "bipartite" with
        | Some e -> e.Registry.scheme
        | None -> Alcotest.fail "bipartite unregistered"
      in
      let proof =
        match scheme.Scheme.prover c with
        | Some p -> p
        | None -> Alcotest.fail "bipartite rejected C48"
      in
      let run cc =
        Simulator.run_verifier ~compiled:cc c proof
          ~radius:scheme.Scheme.radius scheme.Scheme.verifier
      in
      check "reloaded image verifies like the original" true
        (run c = run compiled));
  (* identity mismatch: same file, different requested graph *)
  check "identity mismatch falls back" true
    (Diskcache.load ~dir ~key ~scheme:"bipartite" ~graph6:"A_" = None);
  check "scheme mismatch falls back" true
    (Diskcache.load ~dir ~key ~scheme:"eulerian" ~graph6:g6 = None);
  (* flip one byte mid-file: the checksum must catch it *)
  let file =
    match cache_files dir with
    | [ f ] -> Filename.concat dir f
    | fs -> Alcotest.failf "expected one image, found %d" (List.length fs)
  in
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let body = Bytes.of_string (really_input_string ic len) in
  close_in ic;
  Bytes.set body (len / 2) (Char.chr (Char.code (Bytes.get body (len / 2)) lxor 1));
  let oc = open_out_bin file in
  output_bytes oc body;
  close_out oc;
  check "corrupt image falls back" true
    (Diskcache.load ~dir ~key ~scheme:"bipartite" ~graph6:g6 = None)

(* An image in the on-disk layout with a valid checksum but the given
   rows: only the structural check can refuse it. [~version:1] writes
   the retired layout, which ends in a per-node record-size table. *)
let handmade_image ?(version = 2) ~scheme ~graph6 ~offsets ~targets ~ids () =
  let b = Buffer.create 256 in
  let u n v =
    for byte = n - 1 downto 0 do
      Buffer.add_char b (Char.chr ((v lsr (8 * byte)) land 0xff))
    done
  in
  Buffer.add_string b "LCPC";
  Buffer.add_char b (Char.chr version);
  u 4 (String.length scheme);
  Buffer.add_string b scheme;
  u 4 (String.length graph6);
  Buffer.add_string b graph6;
  u 8 (Array.length ids);
  u 8 (Array.length targets / 2);
  List.iter (Array.iter (u 8)) [ offsets; targets; ids ];
  if version = 1 then Array.iter (fun _ -> u 8 256) ids;
  (* 62-bit FNV-1a over every preceding byte *)
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let h = ref 0x3BF29CE484222325 in
  String.iter
    (fun ch -> h := (!h lxor Char.code ch) * 0x100000001B3 land mask)
    (Buffer.contents b);
  u 8 !h;
  Buffer.contents b

(* Framing and ranges are not enough: rows that are in range but
   asymmetric, unsorted or self-looped must fall back too, and count
   as invalid images. The well-formed control loads. *)
let diskcache_rejects_bad_rows () =
  with_tmp_dir "lcp_cache" @@ fun dir ->
  let scheme = "bipartite" and graph6 = Graph6.encode (Builders.path 3) in
  let key = "bipartite/rows" in
  let load targets =
    let oc = open_out_bin (Filename.concat dir "bipartite_rows.lcpc") in
    output_string oc
      (handmade_image ~scheme ~graph6 ~offsets:[| 0; 1; 3; 4 |] ~targets
         ~ids:[| 0; 1; 2 |] ());
    close_out oc;
    Diskcache.load ~dir ~key ~scheme ~graph6
  in
  check "well-formed rows load" true (load [| 1; 0; 2; 1 |] <> None);
  let invalid0 = (Diskcache.counts ()).Diskcache.invalid in
  List.iter
    (fun (what, targets) -> check (what ^ " falls back") true (load targets = None))
    [
      ("asymmetric", [| 1; 0; 2; 0 |]);
      ("unsorted", [| 1; 2; 0; 1 |]);
      ("self-looped", [| 0; 0; 2; 1 |]);
    ];
  check_int "each counted invalid" (invalid0 + 3)
    (Diskcache.counts ()).Diskcache.invalid

(* A version 1 image (rows plus a record-size table) is refused and
   counted invalid even under a valid checksum; the request compiles
   and overwrites it with a version 2 image, which the next daemon
   loads. *)
let diskcache_refuses_v1 () =
  with_tmp_dir "lcp_cache" @@ fun dir ->
  let graph = Builders.cycle 12 in
  let g6 = Graph6.encode graph in
  let config =
    { Server.default_config with jobs = 1; cache_size = 8; cache_dir = dir }
  in
  let verify what =
    with_server config @@ fun t port ->
    with_client port @@ fun c ->
    (match
       call c (Wire.Verify { scheme = "bipartite"; graph6 = g6; proof = Proof.empty })
     with
    | Wire.Verified _ -> ()
    | _ -> Alcotest.failf "%s: not a Verified reply" what);
    Server.stats t
  in
  ignore (verify "cold verify");
  let file =
    match cache_files dir with
    | [ f ] -> Filename.concat dir f
    | fs -> Alcotest.failf "expected one image, found %d" (List.length fs)
  in
  let version () =
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        seek_in ic 4;
        input_byte ic)
  in
  check_int "images are written as version 2" 2 (version ());
  let offsets, targets, ids = Csr.export (Csr.of_graph graph) in
  let oc = open_out_bin file in
  output_string oc
    (handmade_image ~version:1 ~scheme:"bipartite" ~graph6:g6 ~offsets ~targets
       ~ids ());
  close_out oc;
  let invalid0 = (Diskcache.counts ()).Diskcache.invalid in
  let s = verify "verify over a version 1 image" in
  check_int "the version 1 image counted invalid" (invalid0 + 1)
    (Diskcache.counts ()).Diskcache.invalid;
  check_int "no disk hit on it" 0 s.Server.disk_hits;
  check_int "the request recompiled" 1 s.Server.cache_misses;
  check_int "and overwrote it with version 2" 2 (version ());
  let s = verify "verify over the rewritten image" in
  check_int "the next load hits" 1 s.Server.disk_hits;
  check_int "without a compile" 0 s.Server.cache_misses

let cache_dir_warm_restart () =
  with_tmp_dir "lcp_cache" @@ fun dir ->
  let g6 = Graph6.encode (Builders.cycle 256) in
  let config =
    { Server.default_config with jobs = 1; cache_size = 8; cache_dir = dir }
  in
  (* first daemon: cold compile, which persists the image *)
  let proof =
    with_server config @@ fun t port ->
    with_client port @@ fun c ->
    let p =
      match call c (Wire.Prove { scheme = "bipartite"; graph6 = g6 }) with
      | Wire.Proved (Some p) -> p
      | r ->
          expect_error Wire.Internal "prove" r;
          assert false
    in
    let s = Server.stats t in
    check_int "first daemon compiled" 1 s.Server.cache_misses;
    check_int "no disk hit yet" 0 s.Server.disk_hits;
    p
  in
  check_int "image persisted" 1 (List.length (cache_files dir));
  (* restarted daemon: the very first request must be served from the
     mmapped image — a disk hit, no compile *)
  with_server config @@ fun t port ->
  with_client port @@ fun c ->
  (match call c (Wire.Verify { scheme = "bipartite"; graph6 = g6; proof }) with
  | Wire.Verified { accepted; _ } -> check "warm verify accepted" true accepted
  | r -> expect_error Wire.Internal "warm verify" r);
  let s = Server.stats t in
  check_int "first request was a disk hit" 1 s.Server.disk_hits;
  check "disk hits count as cache hits" true (s.Server.cache_hits >= 1);
  (* the next request for the same graph hits the LRU, not the disk *)
  (match call c (Wire.Verify { scheme = "bipartite"; graph6 = g6; proof }) with
  | Wire.Verified _ -> ()
  | r -> expect_error Wire.Internal "second verify" r);
  let s = Server.stats t in
  check_int "disk tier consulted once" 1 s.Server.disk_hits;
  check "second request hit the LRU" true (s.Server.cache_hits >= 2)

let loadgen_batched () =
  with_server { Server.default_config with jobs = 1 } @@ fun t port ->
  match
    Client.loadgen ~port ~batch:8 ~connections:2 ~requests:5 ~mix:(1, 4, 0)
      ~scheme:"eulerian" ~sizes:[ 16; 24 ] ()
  with
  | Error m -> Alcotest.failf "batched loadgen: %s" m
  | Ok r ->
      check_int "all ops ok" (2 * 5 * 8) r.Client.ok;
      check_int "no errors" 0 r.Client.errors;
      check "ids all echoed" false
        (List.mem_assoc "id_mismatch" r.Client.errors_by_code);
      check "frame latencies recorded" true
        (r.Client.batch_frames.Client.count = 2 * 5);
      check "ops/s = frames/s x batch" true
        (abs_float
           (r.Client.throughput_ops -. (8.0 *. r.Client.throughput_rps))
        < 1e-6 *. r.Client.throughput_ops);
      check_int "server saw the ops" (2 * 5 * 8)
        (Server.stats t).Server.batch_ops

let wire_trace_parentage () =
  (* a frame that arrives carrying a trace context must be traced even
     with sampling off (the head of the call chain decided), and the
     server's request span must parent under the caller's span *)
  Obs.enable ~metrics:false ~trace:true ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.Trace.clear ())
  @@ fun () ->
  with_server Server.default_config @@ fun _t port ->
  with_client port @@ fun c ->
  let rid = 4242 in
  let ctx = Obs.Trace.ctx_of_rid rid in
  let g6 = Graph6.encode (Builders.cycle 12) in
  (match
     Client.call_id ?trace:(Client.wire_trace ctx) c ~id:rid
       (Wire.Prove { scheme = "eulerian"; graph6 = g6 })
   with
  | Ok (id, Wire.Proved _) -> check_int "echoed rid" rid id
  | Ok (_, r) -> expect_error Wire.Internal "prove" r
  | Error m -> Alcotest.failf "prove: %s" m);
  (* the response frame echoes the request's context verbatim *)
  (match
     with_raw_socket port (fun fd ->
         let frame =
           Wire.encode_request ~id:rid ?trace:(Client.wire_trace ctx) Wire.Stats
         in
         ignore (Unix.write_substring fd frame 0 (String.length frame));
         read_reply fd)
   with
  | Ok (id, Some echoed, Wire.Stats_reply _) ->
      check_int "echoed rid" rid id;
      check "context echoed verbatim" true
        (echoed.Wire.trace_hi = ctx.Obs.Trace.t_hi
        && echoed.Wire.trace_lo = ctx.Obs.Trace.t_lo
        && echoed.Wire.parent_span = ctx.Obs.Trace.span)
  | Ok (_, None, _) -> Alcotest.fail "response dropped the trace context"
  | Ok _ -> Alcotest.fail "unexpected response"
  | Error m -> Alcotest.failf "recv: %s" m);
  (* fetch the ring over the wire: the request span must carry the
     caller's trace id and parent under the caller's span *)
  match call c Wire.Trace_export with
  | Wire.Trace_export_reply json ->
      check "server.request span exported" true
        (contains ~sub:"\"name\":\"server.request\"" json);
      check "span carries the caller's trace id" true
        (contains
           ~sub:
             (Printf.sprintf "\"trace\":\"%s\""
                (Obs.Trace.hex_id ctx.Obs.Trace.t_hi ctx.Obs.Trace.t_lo))
           json);
      check "a span parents under the client span" true
        (contains
           ~sub:(Printf.sprintf "\"parent\":%d}" ctx.Obs.Trace.span)
           json);
      check "compute child span exported" true
        (contains ~sub:"\"name\":\"server.compute\"" json)
  | r -> expect_error Wire.Internal "trace export" r

let trace_export_disabled () =
  (* with tracing off the endpoint still answers — an empty trace, not
     an error, so `lcp trace fetch` is always safe to point anywhere *)
  with_server Server.default_config @@ fun _t port ->
  with_client port @@ fun c ->
  match call c Wire.Trace_export with
  | Wire.Trace_export_reply json ->
      check "empty traceEvents" true (contains ~sub:"\"traceEvents\":[]" json)
  | r -> expect_error Wire.Internal "trace export" r

(* Continuous profiling end to end: with the sampler running, a
   served mix must produce per-scheme accounts (the exact channel is
   driven by every request, so this is deterministic), the
   Profile_export endpoint must answer with a document our own JSON
   parser accepts, and the GC / profiler / per-scheme families must
   appear on the same exposition `lcp top` scrapes. *)
let profile_export_e2e () =
  Obs.Profile.reset ();
  Obs.Profile.start ~hz:499 ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Profile.stop ();
      Obs.Profile.reset ())
  @@ fun () ->
  with_server { Server.default_config with jobs = 2 } @@ fun _t port ->
  with_client port @@ fun c ->
  let g6 = Graph6.encode (Builders.cycle 64) in
  for _ = 1 to 8 do
    match call c (Wire.Prove { scheme = "eulerian"; graph6 = g6 }) with
    | Wire.Proved _ -> ()
    | r -> expect_error Wire.Internal "prove" r
  done;
  (* exact channel: every request was accounted to its scheme *)
  (match Test_util.profile_schemes () with
  | [ ("eulerian", cpu, alloc, 8) ] ->
      check "cpu attributed" true (cpu > 0);
      check "alloc attributed" true (alloc >= 0.0)
  | rows -> Alcotest.failf "unexpected scheme rows (%d)" (List.length rows));
  (* sampler thread is live (it ticks even when the pool is idle); 8
     small proves can finish before its first 2 ms tick, so wait for
     one, up to 2 s, before asserting *)
  let until = Unix.gettimeofday () +. 2.0 in
  while Obs.Profile.samples () = 0 && Unix.gettimeofday () < until do
    Thread.delay 0.005
  done;
  check "sampler ticked" true (Obs.Profile.samples () > 0);
  (match call c Wire.Profile_export with
  | Wire.Profile_export_reply json -> (
      match Obs.Json.parse json with
      | Error m -> Alcotest.failf "profile export unparseable: %s" m
      | Ok doc ->
          check "export says enabled" true
            (match Obs.Json.member "enabled" doc with
            | Some (Obs.Json.Bool b) -> b
            | _ -> false);
          check "export names the scheme" true
            (contains ~sub:"\"scheme\":\"eulerian\"" json);
          check "export embeds speedscope" true
            (match Obs.Json.member "speedscope" doc with
            | Some (Obs.Json.Obj _) -> true
            | _ -> false))
  | r -> expect_error Wire.Internal "profile export" r);
  match call c Wire.Metrics_text with
  | Wire.Metrics_text_reply text ->
      List.iter
        (fun family ->
          check (family ^ " exposed") true (contains ~sub:family text))
        [
          "lcp_gc_minor_collections_total"; "lcp_gc_major_collections_total";
          "lcp_gc_allocated_bytes_total"; "lcp_gc_heap_bytes";
          "lcp_profile_samples_total";
          "lcp_scheme_cpu_ns_total{scheme=\"eulerian\"}";
          "lcp_scheme_requests_total{scheme=\"eulerian\"}";
        ]
  | r -> expect_error Wire.Internal "metrics text" r

let profile_export_disabled () =
  (* with the profiler off the endpoint still answers a valid
     zero-sample document — `lcp profile fetch` is safe anywhere, and
     the GC families stay on the exposition (live Gc.quick_stat) *)
  with_server Server.default_config @@ fun _t port ->
  with_client port @@ fun c ->
  (match call c Wire.Profile_export with
  | Wire.Profile_export_reply json -> (
      match Obs.Json.parse json with
      | Error m -> Alcotest.failf "disabled export unparseable: %s" m
      | Ok doc ->
          check "disabled export says so" true
            (match Obs.Json.member "enabled" doc with
            | Some (Obs.Json.Bool b) -> not b
            | _ -> false))
  | r -> expect_error Wire.Internal "profile export" r);
  match call c Wire.Metrics_text with
  | Wire.Metrics_text_reply text ->
      check "gc telemetry present while off" true
        (contains ~sub:"lcp_gc_minor_collections_total" text);
      check "alloc-rate gauge absent while off" false
        (contains ~sub:"lcp_gc_alloc_bytes_per_s" text)
  | r -> expect_error Wire.Internal "metrics text" r

let suite =
  ( "server",
    [
      Alcotest.test_case "lru cache" `Quick lru_unit;
      Alcotest.test_case "scheme registry" `Quick registry_unit;
      Alcotest.test_case "loopback prove/verify + cache" `Quick loopback_cache;
      Alcotest.test_case "warm verify runs no decode" `Quick warm_skips_decode;
      Alcotest.test_case "cold prove builds no graph" `Quick prove_builds_no_graph;
      Alcotest.test_case "backpressure sheds with typed error" `Quick
        overload_sheds;
      Alcotest.test_case "deadline returns typed error" `Quick deadline_exceeded;
      Alcotest.test_case "garbage frames get typed errors" `Quick garbage_frames;
      Alcotest.test_case "retired tags answered Bad_request" `Quick
        retired_tags_answered;
      Alcotest.test_case "loadgen loopback mix" `Quick loadgen_loopback;
      Alcotest.test_case "correlation ids echo end to end" `Quick
        correlation_ids;
      Alcotest.test_case "health and readiness probes" `Quick health_readiness;
      Alcotest.test_case "drain toggles readiness, keeps serving" `Quick
        drain_cycle;
      Alcotest.test_case "metrics_text exposition" `Quick metrics_text_endpoint;
      Alcotest.test_case "http sidecar endpoints" `Quick http_sidecar;
      Alcotest.test_case "structured request log" `Quick structured_log;
      Alcotest.test_case "slow-request flight recorder" `Quick slow_recorder;
      Alcotest.test_case "slow slices survive a reused rid" `Quick
        slow_recorder_reused_rid;
      Alcotest.test_case "metrics reset guarded while serving" `Quick
        reset_guard;
      Alcotest.test_case "loadgen per-code error breakdown" `Quick
        loadgen_error_breakdown;
      Alcotest.test_case "batch frames end to end" `Quick batch_e2e;
      Alcotest.test_case "corrupt batch op isolated" `Quick
        batch_corrupt_op_isolated;
      Alcotest.test_case "disk cache store/load/corrupt" `Quick diskcache_unit;
      Alcotest.test_case "disk cache refuses bad rows" `Quick
        diskcache_rejects_bad_rows;
      Alcotest.test_case "disk cache refuses a version 1 image" `Quick
        diskcache_refuses_v1;
      Alcotest.test_case "cache-dir restart serves warm" `Quick
        cache_dir_warm_restart;
      Alcotest.test_case "loadgen batched mode" `Quick loadgen_batched;
      Alcotest.test_case "loadgen fails ops on an echoed id mismatch" `Quick
        loadgen_id_mismatch;
      Alcotest.test_case "wire trace context parents spans" `Quick
        wire_trace_parentage;
      Alcotest.test_case "trace export while disabled" `Quick
        trace_export_disabled;
      Alcotest.test_case "profile export end to end" `Quick profile_export_e2e;
      Alcotest.test_case "profile export while disabled" `Quick
        profile_export_disabled;
    ] )
