(* Units for the request-telemetry layer: rolling windows (bucket
   rotation and quantiles against a brute-force oracle, driven through
   a virtual clock), the Prometheus exposition (validated line by line
   and read back through its own parser), structured logs (sampling
   and the dropped_before gap marker) and the trace ring's dropped
   counter (in snapshots and in the export footer). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let sec n = n * 1_000_000_000

(* ------------------------------------------------------------------ *)
(* Window: bucketing, rotation, quantile oracle. *)

let window_buckets () =
  (* bucket 0 holds non-positives; bucket b covers [2^(b-1), 2^b) *)
  check_int "bucket of 0" 0 (Obs.Window.bucket_of 0);
  check_int "bucket of -5" 0 (Obs.Window.bucket_of (-5));
  check_int "bucket of 1" 1 (Obs.Window.bucket_of 1);
  check_int "bucket of 2" 2 (Obs.Window.bucket_of 2);
  check_int "bucket of 3" 2 (Obs.Window.bucket_of 3);
  check_int "bucket of 4" 3 (Obs.Window.bucket_of 4);
  check_int "bucket of 1023" 10 (Obs.Window.bucket_of 1023);
  check_int "bucket of 1024" 11 (Obs.Window.bucket_of 1024);
  check_int "upper of 0" 0 (Obs.Window.bucket_upper 0);
  check_int "upper of 1" 1 (Obs.Window.bucket_upper 1);
  check_int "upper of 5" 31 (Obs.Window.bucket_upper 5);
  (* the bucket's upper edge really is the largest value it holds *)
  for b = 1 to 20 do
    let hi = Obs.Window.bucket_upper b in
    check_int "upper edge lands in its bucket" b (Obs.Window.bucket_of hi);
    check_int "upper edge + 1 spills over" (b + 1) (Obs.Window.bucket_of (hi + 1))
  done

let window_rotation () =
  let w = Obs.Window.create ~horizon:5 ~counters:1 () in
  (* one observation per second for 3 seconds *)
  Obs.Window.observe ~now_ns:(sec 100) w 10;
  Obs.Window.observe ~now_ns:(sec 101) w 20;
  Obs.Window.observe ~now_ns:(sec 102) w 30;
  Obs.Window.incr ~now_ns:(sec 102) w 0;
  let s = Obs.Window.stats ~now_ns:(sec 102) ~seconds:3 w in
  check_int "3s window sees all three" 3 s.Obs.Window.count;
  check_int "sum" 60 s.Obs.Window.sum;
  check_int "max" 30 s.Obs.Window.max;
  check_int "counter summed" 1 s.Obs.Window.counters.(0);
  (* a 1-second window sees only the current second *)
  let s1 = Obs.Window.stats ~now_ns:(sec 102) ~seconds:1 w in
  check_int "1s window sees one" 1 s1.Obs.Window.count;
  check_int "1s sum" 30 s1.Obs.Window.sum;
  (* advance the clock past the horizon: the ring slots are recycled
     and old observations vanish without any explicit reset *)
  Obs.Window.observe ~now_ns:(sec 200) w 40;
  let s' = Obs.Window.stats ~now_ns:(sec 200) ~seconds:5 w in
  check_int "old seconds aged out" 1 s'.Obs.Window.count;
  check_int "only the fresh value" 40 s'.Obs.Window.sum;
  (* a full-horizon query at second 205 covers 201..205: the second-200
     observation has just aged out and must not count *)
  Obs.Window.observe ~now_ns:(sec 205) w 50;
  let s'' = Obs.Window.stats ~now_ns:(sec 205) ~seconds:5 w in
  check_int "aged-out second excluded" 1 s''.Obs.Window.count;
  check_int "only the fresh value again" 50 s''.Obs.Window.sum;
  (* rate is count / window seconds *)
  check "rate" true (abs_float (s''.Obs.Window.rate -. (1.0 /. 5.0)) < 1e-9)

(* Oracle: quantiles computed from the raw values must agree with the
   window's log2-bucket answer, where "agree" means: the window
   reports the upper edge of the bucket holding the oracle's value. *)
let window_quantile_oracle () =
  let rand = Random.State.make [| 0x7e1e |] in
  for _trial = 0 to 19 do
    let n = 1 + Random.State.int rand 400 in
    let values =
      Array.init n (fun _ -> Random.State.int rand 100_000)
    in
    let w = Obs.Window.create ~horizon:10 () in
    Array.iter (fun v -> Obs.Window.observe ~now_ns:(sec 50) w v) values;
    let s = Obs.Window.stats ~now_ns:(sec 50) ~seconds:10 w in
    let sorted = Array.copy values in
    Array.sort compare sorted;
    List.iter
      (fun (q, got) ->
        let rank =
          let r = int_of_float (ceil (q *. float_of_int n)) in
          if r < 1 then 1 else if r > n then n else r
        in
        let oracle = sorted.(rank - 1) in
        let expect = Obs.Window.bucket_upper (Obs.Window.bucket_of oracle) in
        if got <> expect then
          Alcotest.failf
            "q=%.2f over %d values: window says %d, oracle value %d wants \
             bucket upper %d"
            q n got oracle expect)
      [ (0.50, s.Obs.Window.p50); (0.95, s.Obs.Window.p95); (0.99, s.Obs.Window.p99) ]
  done;
  (* empty window: all quantiles are 0, rate is 0 *)
  let w = Obs.Window.create () in
  let s = Obs.Window.stats ~now_ns:(sec 1) w in
  check_int "empty p50" 0 s.Obs.Window.p50;
  check_int "empty p99" 0 s.Obs.Window.p99;
  check "empty rate" true (s.Obs.Window.rate = 0.0)

let window_validation () =
  check "horizon < 1 rejected" true
    (match Obs.Window.create ~horizon:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let w = Obs.Window.create ~counters:1 () in
  check "counter index out of range rejected" true
    (match Obs.Window.incr ~now_ns:(sec 1) w 1 with
    | exception Invalid_argument _ -> true
    | () -> false)

(* ------------------------------------------------------------------ *)
(* Export: Prometheus text, validated line by line. *)

let export_renders () =
  let e = Obs.Export.create () in
  Obs.Export.counter e ~help:"requests served" "server.requests" 42;
  Obs.Export.gauge e ~labels:[ ("window", "10s") ] "server.request_rate" 3.5;
  let text = Obs.Export.contents e in
  check "HELP line present" true
    (contains ~sub:"# HELP lcp_server_requests_total requests served" text);
  check "TYPE counter" true
    (contains ~sub:"# TYPE lcp_server_requests_total counter" text);
  check "counter sample" true (contains ~sub:"lcp_server_requests_total 42" text);
  check "labelled gauge sample" true
    (contains ~sub:"lcp_server_request_rate{window=\"10s\"} 3.5" text);
  (* name sanitisation: bad chars become _, leading digit guarded,
     and an existing _total is not doubled *)
  let e2 = Obs.Export.create () in
  Obs.Export.gauge e2 "a.b-c" 1.0;
  Obs.Export.gauge e2 "9lives" 1.0;
  check "sanitised" true (contains ~sub:"\nlcp_a_b_c 1" (Obs.Export.contents e2));
  check "leading digit" true (contains ~sub:"\nlcp__9lives 1" (Obs.Export.contents e2));
  Obs.Export.counter e2 "x_total" 1;
  check "no double _total" true
    (contains ~sub:"lcp_x_total 1" (Obs.Export.contents e2));
  check "not doubled" false
    (contains ~sub:"x_total_total" (Obs.Export.contents e2))

let export_histogram () =
  (* drive a registry histogram through the renderer and check the
     cumulative le buckets by hand: values 1, 3, 3 land in buckets 1
     and 2, so le="1" sees 1, le="3" sees 3, +Inf sees 3 *)
  let h = { Obs.Metrics.count = 3; sum = 7; max = 3; buckets = [ (1, 1); (2, 2) ] } in
  let e = Obs.Export.create () in
  Obs.Export.metrics_snapshot e [ ("engine.ball_size", Obs.Metrics.Hist h) ];
  let text = Obs.Export.contents e in
  check "TYPE histogram" true
    (contains ~sub:"# TYPE lcp_engine_ball_size histogram" text);
  check "le=1 cumulative" true
    (contains ~sub:"lcp_engine_ball_size_bucket{le=\"1\"} 1" text);
  check "le=3 cumulative" true
    (contains ~sub:"lcp_engine_ball_size_bucket{le=\"3\"} 3" text);
  check "+Inf bucket" true
    (contains ~sub:"lcp_engine_ball_size_bucket{le=\"+Inf\"} 3" text);
  check "sum" true (contains ~sub:"lcp_engine_ball_size_sum 7" text);
  check "count" true (contains ~sub:"lcp_engine_ball_size_count 3" text);
  (* every non-comment line of the full render parses *)
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        check (Printf.sprintf "parses: %s" line) true
          (Obs.Export.parse_sample line <> None))
    (String.split_on_char '\n' text)

let export_window_summary () =
  let w = Obs.Window.create ~horizon:10 () in
  List.iter (fun v -> Obs.Window.observe ~now_ns:(sec 7) w v) [ 10; 20; 400 ];
  let s = Obs.Window.stats ~now_ns:(sec 7) ~seconds:10 w in
  let e = Obs.Export.create () in
  Obs.Export.window_summary e "server.request_us" s;
  let text = Obs.Export.contents e in
  check "TYPE summary" true
    (contains ~sub:"# TYPE lcp_server_request_us summary" text);
  (* quantiles carry both the quantile and the window label, and agree
     with the stats record *)
  List.iter
    (fun (q, v) ->
      match
        Obs.Export.find_sample text ~name:"lcp_server_request_us"
          ~labels:[ ("quantile", q); ("window", "10s") ]
      with
      | Some got -> check (q ^ " matches stats") true (got = float_of_int v)
      | None -> Alcotest.failf "quantile %s missing" q)
    [ ("0.5", s.Obs.Window.p50); ("0.95", s.Obs.Window.p95); ("0.99", s.Obs.Window.p99) ];
  (match
     Obs.Export.find_sample text ~name:"lcp_server_request_us_count"
       ~labels:[ ("window", "10s") ]
   with
  | Some c -> check "count" true (c = 3.0)
  | None -> Alcotest.fail "summary count missing")

let export_parser () =
  (* parse_sample is total and strict enough to catch broken output *)
  let ok line expect =
    match Obs.Export.parse_sample line with
    | Some got -> check (Printf.sprintf "parse %S" line) true (got = expect)
    | None -> Alcotest.failf "failed to parse %S" line
  in
  ok "lcp_x 1" ("lcp_x", [], 1.0);
  ok "lcp_x{a=\"b\"} 2.5" ("lcp_x", [ ("a", "b") ], 2.5);
  ok "lcp_x{a=\"b\",c=\"d\"} -3" ("lcp_x", [ ("a", "b"); ("c", "d") ], -3.0);
  ok "x{l=\"quote \\\" slash \\\\\"} 0" ("x", [ ("l", "quote \" slash \\") ], 0.0);
  let bad line =
    check (Printf.sprintf "reject %S" line) true
      (Obs.Export.parse_sample line = None)
  in
  bad "";
  bad "# HELP x y";
  bad "{no_name=\"x\"} 1";
  bad "lcp_x{unterminated=\"} 1";
  bad "lcp_x not_a_number"

(* ------------------------------------------------------------------ *)
(* Log: JSON lines, sampling, the dropped_before marker. *)

let log_lines () =
  let path = Filename.temp_file "lcp_tlog" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let l = Obs.Log.to_file path in
  check "write accepted" true
    (Obs.Log.write ~now_ns:(sec 1) l
       [
         ("rid", Obs.Log.Int 7);
         ("req", Obs.Log.Str "prove");
         ("ok", Obs.Log.Bool true);
         ("ratio", Obs.Log.Float 0.5);
       ]);
  Obs.Log.close l;
  check "close is idempotent, writes after close refused" false
    (Obs.Log.write l [ ("x", Obs.Log.Int 1) ]);
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  check "has ts" true (contains ~sub:"\"ts_ns\":" line);
  check "int field" true (contains ~sub:"\"rid\":7" line);
  check "str field" true (contains ~sub:"\"req\":\"prove\"" line);
  check "bool field" true (contains ~sub:"\"ok\":true" line);
  check "float field" true (contains ~sub:"\"ratio\":0.5" line);
  check "object shape" true (line.[0] = '{' && line.[String.length line - 1] = '}')

let log_sampling () =
  let path = Filename.temp_file "lcp_tlog" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let l = Obs.Log.to_file ~max_per_sec:2 path in
  (* five writes in one second: 2 pass, 3 drop *)
  let passed = ref 0 in
  for i = 1 to 5 do
    if Obs.Log.write ~now_ns:(sec 10 + i) l [ ("i", Obs.Log.Int i) ] then
      incr passed
  done;
  check_int "two lines pass" 2 !passed;
  (* next second: the first line through carries the gap marker *)
  check "next second passes" true
    (Obs.Log.write ~now_ns:(sec 11) l [ ("i", Obs.Log.Int 6) ]);
  Obs.Log.close l;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  check_int "three lines on disk" 3 (List.length lines);
  check "gap marker on the line after the drops" true
    (contains ~sub:"\"dropped_before\":3" (List.nth lines 2));
  check "earlier lines carry no marker" false
    (contains ~sub:"dropped_before" (List.nth lines 0))

(* ------------------------------------------------------------------ *)
(* trace.dropped: ring-wrap losses surface in metric snapshots and in
   the export footer. *)

let trace_dropped () =
  Obs.enable ~metrics:true ~trace:true ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.Trace.set_capacity 65536;
      Obs.Metrics.reset ())
  @@ fun () ->
  Obs.Trace.set_capacity 16;
  (* 28 instants into a 16-slot ring: 12 dropped *)
  for i = 1 to 28 do
    Obs.Trace.instant ~arg_name:"i" ~arg:i "telemetry.test"
  done;
  check_int "ring holds capacity" 16 (Obs.Trace.recorded ());
  check_int "dropped counted" 12 (Obs.Trace.dropped ());
  (* the external counter surfaces it in a snapshot without the trace
     module depending on metrics (wired in Obs's facade) *)
  let snap = Obs.Metrics.snapshot () in
  check_int "trace.dropped in snapshot" 12
    (Obs.Metrics.count snap "trace.dropped");
  (* and the export carries the footer *)
  let path = Filename.temp_file "lcp_trace" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Obs.Trace.export path;
  let ic = open_in path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check "footer records the losses" true (contains ~sub:"\"dropped\":12" body);
  (* a quiet ring exports dropped 0 — a reader can tell the two apart *)
  Obs.Trace.clear ();
  Obs.Trace.instant "telemetry.calm";
  Obs.Trace.export path;
  let ic = open_in path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check "quiet footer is 0" true (contains ~sub:"\"dropped\":0" body)

let trace_slice () =
  Obs.enable ~metrics:false ~trace:true ();
  Fun.protect ~finally:(fun () -> Obs.disable ())
  @@ fun () ->
  Obs.Trace.clear ();
  let t0 = Obs.Clock.now_ns () in
  Obs.Trace.complete ~arg_name:"rid" ~arg:1 "early" ~t0_ns:t0 ~dur_ns:10;
  let t1 = Obs.Clock.now_ns () in
  Obs.Trace.complete ~arg_name:"rid" ~arg:2 "late" ~t0_ns:(t1 + 5_000_000_000)
    ~dur_ns:10;
  let path = Filename.temp_file "lcp_slice" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* slice around the first event only *)
  Obs.Trace.export_slice path ~since_ns:(t0 - 1_000_000) ~until_ns:(t1 + 1_000_000);
  let ic = open_in path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check "in-window event kept" true (contains ~sub:"\"early\"" body);
  check "out-of-window event filtered" false (contains ~sub:"\"late\"" body)

(* external counters: registered once, sampled at snapshot time,
   unaffected by reset *)
let external_counter () =
  Obs.enable ~metrics:true ~trace:false ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.Metrics.reset ())
  @@ fun () ->
  let v = ref 17 in
  Obs.Metrics.external_counter "telemetry.test_external" (fun () -> !v);
  Obs.Metrics.external_counter "telemetry.test_external" (fun () -> 999);
  (* idempotent: the first registration wins *)
  let snap = Obs.Metrics.snapshot () in
  check_int "external sampled" 17
    (Obs.Metrics.count snap "telemetry.test_external");
  v := 23;
  Obs.Metrics.reset ();
  let snap = Obs.Metrics.snapshot () in
  check_int "survives reset, re-sampled" 23
    (Obs.Metrics.count snap "telemetry.test_external")

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "window bucket edges" `Quick window_buckets;
      Alcotest.test_case "window rotation under a virtual clock" `Quick
        window_rotation;
      Alcotest.test_case "window quantiles vs oracle" `Quick
        window_quantile_oracle;
      Alcotest.test_case "window argument validation" `Quick window_validation;
      Alcotest.test_case "prometheus counters and gauges" `Quick export_renders;
      Alcotest.test_case "prometheus histogram buckets" `Quick export_histogram;
      Alcotest.test_case "prometheus window summaries" `Quick
        export_window_summary;
      Alcotest.test_case "exposition parser" `Quick export_parser;
      Alcotest.test_case "structured log lines" `Quick log_lines;
      Alcotest.test_case "log sampling and gap markers" `Quick log_sampling;
      Alcotest.test_case "trace.dropped in snapshot and footer" `Quick
        trace_dropped;
      Alcotest.test_case "trace slice export" `Quick trace_slice;
      Alcotest.test_case "external counters" `Quick external_counter;
    ] )
