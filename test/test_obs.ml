(* Observability layer: monotonic clock, sharded metrics semantics
   (counter / gauge / histogram, enable gating, reset, multi-domain
   merge) and the trace ring buffer with its Chrome trace-event JSON
   export.

   Obs state is global, so every test that flips [enabled] or records
   events runs under [with_obs_reset], which restores the disabled
   default even on failure — the rest of the alcotest binary must keep
   seeing the zero-cost path. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_obs_reset f =
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.Metrics.reset ();
      Obs.Trace.set_capacity 65536)
    f

(* --- clock ------------------------------------------------------------ *)

let clock_monotonic () =
  let a = Obs.Clock.now_ns () in
  check "clock is up" true (a > 0);
  (* Busy-wait a little: CLOCK_MONOTONIC must never step backwards. *)
  let prev = ref a in
  for _ = 1 to 1000 do
    let t = Obs.Clock.now_ns () in
    check "non-decreasing" true (t >= !prev);
    prev := t
  done;
  check "elapsed >= 0" true (Obs.Clock.elapsed_ns a >= 0);
  check "ns_to_s" true (Obs.Clock.ns_to_s 1_500_000_000 = 1.5);
  check "ns_to_us" true (Obs.Clock.ns_to_us 1_500 = 1.5)

(* --- metrics ---------------------------------------------------------- *)

let m_c = Obs.Metrics.counter "test.counter"
let m_g = Obs.Metrics.gauge_max "test.gauge"
let m_h = Obs.Metrics.histogram "test.hist"

let metrics_semantics () =
  with_obs_reset @@ fun () ->
  Obs.enable ();
  Obs.Metrics.reset ();
  Obs.Metrics.incr m_c;
  Obs.Metrics.add m_c 9;
  Obs.Metrics.observe_max m_g 7;
  Obs.Metrics.observe_max m_g 3;
  (* log₂ buckets: 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2
     ([2,4)); 8 → bucket 4 ([8,16)). *)
  List.iter (Obs.Metrics.observe m_h) [ 0; 1; 2; 3; 8 ];
  let snap = Obs.Metrics.snapshot () in
  check_int "counter sums" 10 (Obs.Metrics.count snap "test.counter");
  check_int "gauge keeps max" 7 (Obs.Metrics.max_value snap "test.gauge");
  (match List.assoc_opt "test.hist" snap with
  | Some (Obs.Metrics.Hist h) ->
      check_int "hist count" 5 h.Obs.Metrics.count;
      check_int "hist sum" 14 h.Obs.Metrics.sum;
      check_int "hist max" 8 h.Obs.Metrics.max;
      check "hist buckets" true
        (h.Obs.Metrics.buckets = [ (0, 1); (1, 1); (2, 2); (4, 1) ])
  | _ -> Alcotest.fail "test.hist missing from snapshot");
  (* count/max also read through to histograms *)
  check_int "hist via count" 5 (Obs.Metrics.count snap "test.hist");
  check_int "hist via max_value" 8 (Obs.Metrics.max_value snap "test.hist");
  check_int "absent metric counts 0" 0 (Obs.Metrics.count snap "test.nope");
  (* reset really zeroes *)
  Obs.Metrics.reset ();
  let snap = Obs.Metrics.snapshot () in
  check_int "reset counter" 0 (Obs.Metrics.count snap "test.counter");
  check_int "reset gauge" 0 (Obs.Metrics.max_value snap "test.gauge");
  check_int "reset hist" 0 (Obs.Metrics.count snap "test.hist")

let metrics_disabled_is_inert () =
  with_obs_reset @@ fun () ->
  Obs.Metrics.reset ();
  check "disabled by default" false (Obs.enabled ());
  Obs.Metrics.incr m_c;
  Obs.Metrics.add m_c 5;
  Obs.Metrics.observe_max m_g 9;
  Obs.Metrics.observe m_h 4;
  let snap = Obs.Metrics.snapshot () in
  check_int "no counter recorded" 0 (Obs.Metrics.count snap "test.counter");
  check_int "no gauge recorded" 0 (Obs.Metrics.max_value snap "test.gauge");
  check_int "no hist recorded" 0 (Obs.Metrics.count snap "test.hist")

let metrics_registration () =
  (* Same name, same kind: same slot (recording through either handle
     hits one metric). Same name, different kind: refused. *)
  with_obs_reset @@ fun () ->
  Obs.enable ();
  Obs.Metrics.reset ();
  let again = Obs.Metrics.counter "test.counter" in
  Obs.Metrics.incr m_c;
  Obs.Metrics.incr again;
  check_int "idempotent registration shares the slot" 2
    (Obs.Metrics.count (Obs.Metrics.snapshot ()) "test.counter");
  check "kind conflict refused" true
    (match Obs.Metrics.histogram "test.counter" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let metrics_multidomain_merge () =
  (* Four domains hammer the same metrics through their own DLS shards;
     the snapshot must see the commutative merge of all of them. *)
  with_obs_reset @@ fun () ->
  Obs.enable ();
  Obs.Metrics.reset ();
  let per_domain = 10_000 in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.Metrics.incr m_c;
              Obs.Metrics.observe m_h (i land 7)
            done;
            Obs.Metrics.observe_max m_g (100 + d)))
  in
  List.iter Domain.join doms;
  let snap = Obs.Metrics.snapshot () in
  check_int "counters sum across shards" (4 * per_domain)
    (Obs.Metrics.count snap "test.counter");
  check_int "gauge maxes across shards" 103
    (Obs.Metrics.max_value snap "test.gauge");
  check_int "histogram counts sum" (4 * per_domain)
    (Obs.Metrics.count snap "test.hist")

let deterministic_filter () =
  with_obs_reset @@ fun () ->
  Obs.enable ();
  Obs.Metrics.reset ();
  let ns = Obs.Metrics.counter "test.elapsed_ns" in
  let pl = Obs.Metrics.counter "pool.test_tasks" in
  Obs.Metrics.add ns 123;
  Obs.Metrics.incr pl;
  Obs.Metrics.incr m_c;
  let det = Obs.Metrics.deterministic (Obs.Metrics.snapshot ()) in
  check "keeps plain counters" true (List.mem_assoc "test.counter" det);
  check "drops _ns timings" false (List.mem_assoc "test.elapsed_ns" det);
  check "drops pool.* scheduling" false (List.mem_assoc "pool.test_tasks" det)

(* --- a minimal JSON reader, enough to validate the exports ------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.fail (Printf.sprintf "JSON %s at %d" msg !pos) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let next () = let c = peek () in incr pos; c in
  let rec skip_ws () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> incr pos; skip_ws () | _ -> ()
  in
  let expect c = if next () <> c then fail (Printf.sprintf "expected %c" c) in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' -> (
          match next () with
          | ('"' | '\\' | '/') as c -> Buffer.add_char b c; go ()
          | 'n' -> Buffer.add_char b '\n'; go ()
          | 't' -> Buffer.add_char b '\t'; go ()
          | 'u' ->
              pos := !pos + 4;
              Buffer.add_char b '?';
              go ()
          | _ -> fail "bad escape")
      | '\000' -> fail "unterminated string"
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '"' -> Str (parse_string ())
    | '{' ->
        expect '{';
        skip_ws ();
        if peek () = '}' then (incr pos; Obj [])
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match next () with
            | ',' -> members ((k, v) :: acc)
            | '}' -> Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
        end
    | '[' ->
        expect '[';
        skip_ws ();
        if peek () = ']' then (incr pos; Arr [])
        else begin
          let rec elems acc =
            let v = value () in
            skip_ws ();
            match next () with
            | ',' -> elems (v :: acc)
            | ']' -> Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          elems []
        end
    | 't' -> pos := !pos + 4; Bool true
    | 'f' -> pos := !pos + 5; Bool false
    | 'n' -> pos := !pos + 4; Null
    | _ ->
        let start = !pos in
        let is_num c =
          (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
          || c = 'E'
        in
        while is_num (peek ()) do incr pos done;
        if !pos = start then fail "unexpected character"
        else Num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- trace ------------------------------------------------------------ *)

let assoc name = function
  | Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let trace_export_is_chrome_json () =
  with_obs_reset @@ fun () ->
  Obs.enable ~metrics:false ~trace:true ();
  let r = Obs.Trace.span "test.outer" (fun () ->
      Obs.Trace.span_arg "test.inner" "node" 17 (fun () -> 41 + 1))
  in
  check_int "span returns the thunk's value" 42 r;
  Obs.Trace.instant ~arg_name:"hits" ~arg:3 "test.instant";
  check_int "three events recorded" 3 (Obs.Trace.recorded ());
  check_int "none dropped" 0 (Obs.Trace.dropped ());
  (* A span must survive (and re-raise) an exception in its thunk. *)
  check "span re-raises" true
    (match Obs.Trace.span "test.raises" (fun () -> raise Exit) with
    | exception Exit -> true
    | _ -> false);
  let path = Filename.temp_file "lcp_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Trace.export path;
  let events =
    match assoc "traceEvents" (parse_json (read_file path)) with
    | Some (Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  check_int "all events exported" 4 (List.length events);
  List.iter
    (fun e ->
      check "has name" true
        (match assoc "name" e with Some (Str _) -> true | _ -> false);
      check "has ts" true
        (match assoc "ts" e with Some (Num t) -> t >= 0. | _ -> false);
      match assoc "ph" e with
      | Some (Str "X") ->
          check "X has dur" true
            (match assoc "dur" e with Some (Num d) -> d >= 0. | _ -> false)
      | Some (Str "i") -> ()
      | _ -> Alcotest.fail "unexpected ph")
    events;
  (* sorted by timestamp *)
  let ts =
    List.map
      (fun e -> match assoc "ts" e with Some (Num t) -> t | _ -> 0.)
      events
  in
  check "sorted by ts" true (List.sort compare ts = ts);
  (* the inner span nests within the outer one *)
  let find name =
    List.find
      (fun e -> assoc "name" e = Some (Str name))
      events
  in
  let span_bounds e =
    match (assoc "ts" e, assoc "dur" e) with
    | Some (Num t), Some (Num d) -> (t, t +. d)
    | _ -> Alcotest.fail "span without ts/dur"
  in
  let o0, o1 = span_bounds (find "test.outer") in
  let i0, i1 = span_bounds (find "test.inner") in
  check "inner nested in outer" true (o0 <= i0 && i1 <= o1);
  (match assoc "args" (find "test.inner") with
  | Some (Obj [ ("node", Num 17.) ]) -> ()
  | _ -> Alcotest.fail "span_arg argument lost")

let trace_ring_wraps () =
  with_obs_reset @@ fun () ->
  Obs.Trace.set_capacity 16;
  Obs.enable ~metrics:false ~trace:true ();
  for i = 1 to 100 do
    Obs.Trace.instant ~arg_name:"i" ~arg:i "test.tick"
  done;
  check_int "ring holds capacity" 16 (Obs.Trace.recorded ());
  check_int "rest counted as dropped" 84 (Obs.Trace.dropped ());
  let path = Filename.temp_file "lcp_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Trace.export path;
  (match assoc "traceEvents" (parse_json (read_file path)) with
  | Some (Arr evs) ->
      check_int "export holds the survivors" 16 (List.length evs);
      (* the survivors are the newest events: args 85..100 *)
      let args =
        List.filter_map
          (fun e ->
            match assoc "args" e with
            | Some (Obj [ ("i", Num v) ]) -> Some (int_of_float v)
            | _ -> None)
          evs
      in
      check "oldest overwritten" true
        (List.sort compare args = List.init 16 (fun i -> 85 + i))
  | _ -> Alcotest.fail "no traceEvents array");
  Obs.Trace.clear ();
  check_int "clear empties the ring" 0 (Obs.Trace.recorded ());
  check_int "clear resets dropped" 0 (Obs.Trace.dropped ())

let trace_disabled_is_passthrough () =
  with_obs_reset @@ fun () ->
  check_int "span runs the thunk" 7 (Obs.Trace.span "test.off" (fun () -> 7));
  Obs.Trace.instant "test.off";
  check_int "nothing recorded" 0 (Obs.Trace.recorded ())

(* --- distributed-tracing identity ------------------------------------- *)

let trace_sampler () =
  (* every=1 samples everything; <= 0 samples nothing *)
  for rid = 0 to 99 do
    check "every=1 samples all" true (Obs.Trace.sample ~every:1 rid);
    check "every=0 samples none" false (Obs.Trace.sample ~every:0 rid)
  done;
  check "negative rate samples none" false (Obs.Trace.sample ~every:(-4) 7);
  (* the verdict is a pure function of the rid — what keeps the
     client's, router's and backend's decisions aligned *)
  for rid = 0 to 999 do
    check "verdict stable" true
      (Obs.Trace.sample ~every:8 rid = Obs.Trace.sample ~every:8 rid)
  done;
  (* 1-in-8 sampling over sequential rids lands near 1/8 — the hash,
     not the rid's low bits, decides *)
  let n = 100_000 in
  let hits = ref 0 in
  for rid = 1 to n do
    if Obs.Trace.sample ~every:8 rid then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check "rate near 1/8" true (rate > 0.10 && rate < 0.15);
  (* rid-derived trace ids are deterministic, nonzero, 32 hex digits *)
  let c1 = Obs.Trace.ctx_of_rid 42 in
  let c2 = Obs.Trace.ctx_of_rid ~parent:9 42 in
  let h1 = c1.Obs.Trace.t_hi and l1 = c1.Obs.Trace.t_lo in
  check "trace id deterministic" true
    (c2.Obs.Trace.t_hi = h1 && c2.Obs.Trace.t_lo = l1);
  check "trace id nonzero" true (h1 <> 0 || l1 <> 0);
  check "trace id halves non-negative" true (h1 >= 0 && l1 >= 0);
  check_int "hex id is 32 digits" 32 (String.length (Obs.Trace.hex_id h1 l1));
  check "span ids are fresh per ctx" true
    (c1.Obs.Trace.span <> 0 && c2.Obs.Trace.span <> 0
    && c1.Obs.Trace.span <> c2.Obs.Trace.span);
  check_int "default parent is root" 0 c1.Obs.Trace.parent;
  check_int "explicit parent kept" 9 c2.Obs.Trace.parent

let trace_ctx_args_export () =
  with_obs_reset @@ fun () ->
  Obs.enable ~metrics:false ~trace:true ();
  let ctx = Obs.Trace.ctx_of_rid ~parent:77 42 in
  check_int "span_ctx returns the thunk's value" 5
    (Obs.Trace.span_ctx "test.traced" "rid" 42 ctx (fun () -> 5));
  Obs.Trace.span "test.untraced" (fun () -> ());
  let j = parse_json (Obs.Trace.export_string ()) in
  let events =
    match assoc "traceEvents" j with
    | Some (Arr e) -> e
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let find name =
    match List.find_opt (fun e -> assoc "name" e = Some (Str name)) events with
    | Some e -> e
    | None -> Alcotest.failf "event %s lost" name
  in
  (match assoc "args" (find "test.traced") with
  | Some (Obj kvs) ->
      check "rid arg kept" true (List.assoc_opt "rid" kvs = Some (Num 42.));
      check "trace arg is the rid's hex id" true
        (List.assoc_opt "trace" kvs
        = Some (Str (Obs.Trace.hex_id ctx.Obs.Trace.t_hi ctx.Obs.Trace.t_lo)));
      check "span arg" true
        (List.assoc_opt "span" kvs
        = Some (Num (float_of_int ctx.Obs.Trace.span)));
      check "parent arg" true (List.assoc_opt "parent" kvs = Some (Num 77.))
  | _ -> Alcotest.fail "traced span lost its args");
  (* untraced events must NOT grow identity args — exact-match
     consumers (and sheer ring size) depend on it *)
  check "untraced span carries no identity" true
    (match assoc "args" (find "test.untraced") with
    | None -> true
    | Some (Obj kvs) -> not (List.mem_assoc "trace" kvs)
    | _ -> false);
  check "export names the process lane" true
    (match assoc "process" j with Some (Str _) -> true | _ -> false)

let tid_main = "000102030405060708090a0b0c0d0e0f"

let trace_merge_aligns_clocks () =
  let ev name ts dur ~span ~parent ~extra =
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"lcp\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s\"trace\":\"%s\",\"span\":%d,\"parent\":%d}}"
      name ts dur extra tid_main span parent
  in
  let spool process evs =
    Printf.sprintf "{\"traceEvents\":[%s],\"dropped\":0,\"process\":%S}"
      (String.concat "," evs) process
  in
  (* one request crossing three processes, each spool on its own clock:
     the router's clock runs 2000us ahead of the loadgen's and the
     backend's 5000us ahead — the parent links must recover both
     (loadgen<->backend never talk directly; the BFS chains through
     the router) *)
  let loadgen =
    spool "loadgen"
      [ ev "client.request" 100. 300. ~span:100 ~parent:0 ~extra:"\"rid\":7," ]
  in
  let router =
    spool "router"
      [
        ev "router.request" 2150. 200. ~span:200 ~parent:100 ~extra:"";
        ev "router.upstream" 2160. 180. ~span:300 ~parent:200 ~extra:"";
        "{\"name\":\"router.tick\",\"ph\":\"i\",\"pid\":0,\"tid\":1,\"ts\":2100.0}";
      ]
  in
  let backend =
    spool "backend"
      [ ev "server.request" 5200. 100. ~span:400 ~parent:300 ~extra:"" ]
  in
  let files =
    [ ("loadgen", loadgen); ("router", router); ("backend", backend) ]
  in
  (match Obs.Trace_merge.merge files with
  | Error m -> Alcotest.failf "merge failed: %s" m
  | Ok (json, st) ->
      check_int "all events merged" 5 st.Obs.Trace_merge.events;
      check_int "one trace id" 1 st.Obs.Trace_merge.traces;
      check_int "it crosses processes" 1 st.Obs.Trace_merge.cross_process;
      check_int "over three lanes" 3 st.Obs.Trace_merge.max_lanes;
      (match st.Obs.Trace_merge.processes with
      | [ ("loadgen", o0); ("router", o1); ("backend", o2) ] ->
          check "reference lane unshifted" true (abs_float o0 < 1e-9);
          check "router offset recovered" true (abs_float (o1 +. 2000.) < 1e-6);
          check "backend offset chained through the router" true
            (abs_float (o2 +. 5000.) < 1e-6)
      | _ -> Alcotest.fail "unexpected lane list");
      let events =
        match assoc "traceEvents" (parse_json json) with
        | Some (Arr e) -> e
        | _ -> Alcotest.fail "merged traceEvents missing"
      in
      let ts_of name =
        match
          List.find_opt (fun e -> assoc "name" e = Some (Str name)) events
        with
        | Some e -> (
            match assoc "ts" e with
            | Some (Num t) -> t
            | _ -> Alcotest.failf "%s has no ts" name)
        | None -> Alcotest.failf "merged output lost %s" name
      in
      (* after alignment every span sits on the loadgen's clock and
         nests where the true timeline put it *)
      check "router span lands inside the client span" true
        (abs_float (ts_of "router.request" -. 150.) < 1e-6);
      check "backend span lands inside the upstream span" true
        (abs_float (ts_of "server.request" -. 200.) < 1e-6);
      check_int "one process_name metadata event per lane" 3
        (List.length
           (List.filter (fun e -> assoc "ph" e = Some (Str "M")) events)));
  (* ?trace_id keeps only that trace (case-insensitively) *)
  (match Obs.Trace_merge.merge ~trace_id:(String.uppercase_ascii tid_main) files with
  | Error m -> Alcotest.failf "filtered merge failed: %s" m
  | Ok (_, st) ->
      check_int "untraced tick filtered out" 4 st.Obs.Trace_merge.events);
  (* a garbage spool is a typed error naming the file, not a raise *)
  match Obs.Trace_merge.merge [ ("bad-spool", "{nope") ] with
  | Error m ->
      check "error names the file" true
        (String.length m >= 9 && String.sub m 0 9 = "bad-spool")
  | Ok _ -> Alcotest.fail "garbage spool accepted"

let metrics_json_parses () =
  with_obs_reset @@ fun () ->
  Obs.enable ();
  Obs.Metrics.reset ();
  Obs.Metrics.add m_c 3;
  Obs.Metrics.observe m_h 5;
  match parse_json (Obs.Metrics.to_json (Obs.Metrics.snapshot ())) with
  | Obj kvs ->
      check "counter is a number" true
        (match List.assoc_opt "test.counter" kvs with
        | Some (Num 3.) -> true
        | _ -> false);
      check "histogram is an object with buckets" true
        (match List.assoc_opt "test.hist" kvs with
        | Some (Obj h) -> (
            match List.assoc_opt "buckets" h with Some (Arr _) -> true | _ -> false)
        | _ -> false)
  | _ -> Alcotest.fail "to_json did not produce an object"

(* --- Json edge cases -------------------------------------------------- *)

(* The parser is the read side of every export in the system (trace
   spools, profile exports, bench JSON), so its totality contract —
   malformed input is an [Error], never an exception — gets pinned
   directly. *)
let json_edge_cases () =
  let parse s = Obs.Json.parse s in
  (* string escapes, including \uXXXX decoded to UTF-8 *)
  (match parse {|{"a":"q\" b\\ s\/ n\n t\t u\u0041 e\u00e9"}|} with
  | Ok (Obs.Json.Obj [ ("a", Obs.Json.Str v) ]) ->
      Alcotest.(check string)
        "escapes decode" "q\" b\\ s/ n\n t\t uA e\xc3\xa9" v
  | Ok j -> Alcotest.failf "unexpected shape: %s" (Obs.Json.to_string j)
  | Error m -> Alcotest.failf "escapes: %s" m);
  (* deep nesting of arrays and objects *)
  (match parse {|[[[{"x":[1,[2],{"y":null,"z":[{}]}]}]]]|} with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "nesting: %s" m);
  (* exponent forms all land on the same float *)
  List.iter
    (fun (txt, want) ->
      match parse txt with
      | Ok (Obs.Json.Num v) ->
          check (Printf.sprintf "number %s" txt) true
            (Float.abs (v -. want) < 1e-9)
      | Ok j -> Alcotest.failf "%s: unexpected %s" txt (Obs.Json.to_string j)
      | Error m -> Alcotest.failf "%s: %s" txt m)
    [
      ("1e3", 1000.0); ("-2.5E-2", -0.025); ("0.125e+2", 12.5);
      ("-0", 0.0); ("1234567890123", 1234567890123.0);
    ];
  (* truncated / malformed inputs: Error with an offset, not an
     exception, and trailing bytes after a complete value are refused *)
  List.iter
    (fun txt ->
      match parse txt with
      | Error _ -> ()
      | Ok j ->
          Alcotest.failf "%S should not parse (got %s)" txt
            (Obs.Json.to_string j))
    [
      {|{"a":|}; "[1,2"; {|"abc|}; {|{"a":1|}; "tru"; "-"; "1e"; "";
      {|{"a" 1}|}; "[1 2]"; {|{} x|}; {|"bad \q escape"|}; {|"\u00g1"|};
    ]

(* --- profile ----------------------------------------------------------- *)

let with_profile_reset f =
  Fun.protect
    ~finally:(fun () ->
      Obs.Profile.enabled := false;
      Obs.Trace.stacks_on := false;
      Obs.Profile.reset ();
      Obs.disable ())
    f

(* Drive the sampler synchronously: stacks_on makes span push frames
   even with the trace ring off, and sample_now folds whatever is
   open on this domain into the attribution table. *)
let profile_attribution () =
  with_profile_reset @@ fun () ->
  Obs.Profile.reset ();
  Obs.Profile.enabled := true;
  Obs.Trace.stacks_on := true;
  check "Trace.on sees stacks_on" true (Obs.Trace.on ());
  Obs.Trace.span "outer" (fun () ->
      Obs.Trace.span "inner" (fun () ->
          Obs.Profile.sample_now ();
          Obs.Profile.sample_now ());
      Obs.Profile.sample_now ());
  check_int "ticks counted" 3 (Obs.Profile.samples ());
  check_int "non-idle stacks" 3 (Obs.Profile.stack_samples ());
  let collapsed = Test_util.profile_collapsed () in
  check "outer;inner weighted 2" true (List.mem "outer;inner 2" collapsed);
  check "outer alone weighted 1" true (List.mem "outer 1" collapsed);
  (* frames pop on the way out: sampling outside the spans adds
     nothing *)
  Obs.Profile.sample_now ();
  check_int "idle tick adds no stack" 3 (Obs.Profile.stack_samples ());
  (* exception safety: a raising span must still pop its frame *)
  (try Obs.Trace.span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Obs.Profile.sample_now ();
  check_int "frame popped on raise" 3 (Obs.Profile.stack_samples ())

let profile_exports_parse () =
  with_profile_reset @@ fun () ->
  Obs.Profile.reset ();
  Obs.Profile.enabled := true;
  Obs.Trace.stacks_on := true;
  Obs.Trace.span "compile" (fun () -> Obs.Profile.sample_now ());
  Obs.Profile.account ~scheme:"eulerian" ~cpu_ns:5000 ~alloc_bytes:2048.0;
  Obs.Profile.account ~scheme:"eulerian" ~cpu_ns:3000 ~alloc_bytes:1024.0;
  Obs.Profile.account ~scheme:"bipartite" ~cpu_ns:100 ~alloc_bytes:64.0;
  (match Test_util.profile_schemes () with
  | [ ("eulerian", 8000, a, 2); ("bipartite", 100, b, 1) ] ->
      check "eulerian alloc summed" true (a = 3072.0);
      check "bipartite alloc" true (b = 64.0)
  | rows ->
      Alcotest.failf "unexpected scheme rows (%d)" (List.length rows));
  (* the full wire-reply document parses with our own parser... *)
  let doc =
    match Obs.Json.parse (Obs.Profile.export_string ()) with
    | Ok d -> d
    | Error m -> Alcotest.failf "export_string unparseable: %s" m
  in
  let member name = Obs.Json.member name doc in
  check "has gc object" true
    (match member "gc" with Some (Obs.Json.Obj _) -> true | _ -> false);
  check "collapsed mentions compile" true
    (match Option.bind (member "collapsed") Obs.Json.to_string_opt with
    | Some c ->
        let re = "compile 1" in
        List.mem re (String.split_on_char '\n' c)
    | None -> false);
  (* ...and so does the embedded speedscope profile, with consistent
     frame indices and one weight per sample *)
  (match member "speedscope" with
  | Some ss -> (
      check "schema url" true
        (match
           Option.bind (Obs.Json.member "$schema" ss) Obs.Json.to_string_opt
         with
        | Some u -> u = "https://www.speedscope.app/file-format-schema.json"
        | None -> false);
      match
        Option.bind (Obs.Json.member "profiles" ss) Obs.Json.to_list
      with
      | Some [ prof ] ->
          let n_samples =
            match
              Option.bind (Obs.Json.member "samples" prof) Obs.Json.to_list
            with
            | Some l -> List.length l
            | None -> -1
          in
          let n_weights =
            match
              Option.bind (Obs.Json.member "weights" prof) Obs.Json.to_list
            with
            | Some l -> List.length l
            | None -> -2
          in
          check "one weight per sample" true (n_samples = n_weights)
      | _ -> Alcotest.fail "speedscope.profiles should hold one profile")
  | None -> Alcotest.fail "export has no speedscope member");
  (* a reset-and-disabled profiler still exports a valid document *)
  Obs.Profile.enabled := false;
  Obs.Trace.stacks_on := false;
  Obs.Profile.reset ();
  match Obs.Json.parse (Obs.Profile.export_string ()) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "zero-sample export unparseable: %s" m

let fresh_dir tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "lcp_obs_%s_%d" tag (Unix.getpid ()))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let sorted_entries dir = List.sort compare (Array.to_list (Sys.readdir dir))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* Every session runs under its own lane; put the default back. *)
let with_lane_restored f =
  let saved = !Obs.Trace.process in
  Fun.protect ~finally:(fun () -> Obs.Trace.process := saved) f

(* Every spool directory means mkdir -p. A nested path that does not
   exist yet must be created, and spooling into an existing directory
   must stay idempotent. *)
let spool_mkdir_p () =
  with_profile_reset @@ fun () ->
  with_lane_restored @@ fun () ->
  let base = fresh_dir "mkdir" in
  Fun.protect ~finally:(fun () -> rm_rf base) @@ fun () ->
  let nested = Filename.concat (Filename.concat base "a") "b" in
  check "nested dir absent before" false (Sys.file_exists nested);
  Obs.Trace.mkdir_p nested;
  check "nested dir created" true
    (Sys.file_exists nested && Sys.is_directory nested);
  Obs.Trace.mkdir_p nested (* idempotent *);
  let deeper = Filename.concat nested "c" in
  Obs.session ~process:"spool-test" { Obs.off with dir = Some deeper } ignore;
  check "trace spool created its dir" true
    (Sys.file_exists (Filename.concat deeper "trace-spool-test.json"));
  let d = Filename.concat nested "d" in
  Obs.session ~process:"spool-test"
    { Obs.off with dir = Some d; profile = true }
    ignore;
  check "profile spool named after process" true
    (Sys.file_exists (Filename.concat d "profile-spool-test.json"))

(* One session with tracing and profiling on writes exactly its two
   lane files; the lane name is sanitised for the file name but kept
   verbatim in the trace footer. *)
let session_spools_lane () =
  with_profile_reset @@ fun () ->
  with_lane_restored @@ fun () ->
  let dir = fresh_dir "session" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let lane = "serve:7411#1" in
  let r =
    Obs.session ~process:lane
      { Obs.off with dir = Some dir; profile = true }
      (fun () ->
        check "tracing on" true !Obs.Trace.enabled;
        check "profiling on" true !Obs.Profile.enabled;
        Obs.Trace.span "session.body" (fun () -> 42))
  in
  check_int "body result passes through" 42 r;
  check "sampler stopped on exit" false !Obs.Profile.enabled;
  let trace = "trace-serve_7411_1.json"
  and profile = "profile-serve_7411_1.json" in
  Alcotest.(check (list string))
    "exactly the trace and profile lanes" [ profile; trace ]
    (sorted_entries dir);
  let parse name =
    match Obs.Json.parse (read_file (Filename.concat dir name)) with
    | Ok j -> j
    | Error m -> Alcotest.failf "%s does not parse: %s" name m
  in
  let process j =
    Option.bind (Obs.Json.member "process" j) Obs.Json.to_string_opt
  in
  Alcotest.(check (option string))
    "trace footer names the lane" (Some lane)
    (process (parse trace));
  Alcotest.(check (option string))
    "profile names the lane" (Some lane)
    (process (parse profile))

(* Without a directory the session writes no file, whatever else it
   turned on. *)
let session_without_dir_writes_nothing () =
  with_profile_reset @@ fun () ->
  with_lane_restored @@ fun () ->
  let dir = fresh_dir "nodir" in
  Obs.Trace.mkdir_p dir;
  let cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      rm_rf dir)
  @@ fun () ->
  Sys.chdir dir;
  Obs.session ~process:"no-dir"
    { Obs.off with trace_sample = 1; profile = true }
    (fun () -> Obs.Trace.span "session.body" ignore);
  check "ring was on" true (Obs.Trace.recorded () > 0);
  Alcotest.(check (list string)) "no file written" [] (sorted_entries dir)

let suite =
  ( "obs",
    [
      Alcotest.test_case "clock is monotonic" `Quick clock_monotonic;
      Alcotest.test_case "metrics semantics" `Quick metrics_semantics;
      Alcotest.test_case "disabled metrics record nothing" `Quick
        metrics_disabled_is_inert;
      Alcotest.test_case "registration idempotent, kind-checked" `Quick
        metrics_registration;
      Alcotest.test_case "multi-domain shard merge" `Quick
        metrics_multidomain_merge;
      Alcotest.test_case "deterministic filter" `Quick deterministic_filter;
      Alcotest.test_case "trace export is chrome JSON" `Quick
        trace_export_is_chrome_json;
      Alcotest.test_case "trace ring wraps, newest survive" `Quick
        trace_ring_wraps;
      Alcotest.test_case "disabled trace is pass-through" `Quick
        trace_disabled_is_passthrough;
      Alcotest.test_case "trace sampler deterministic" `Quick trace_sampler;
      Alcotest.test_case "trace ctx rides the export" `Quick
        trace_ctx_args_export;
      Alcotest.test_case "trace merge aligns clocks" `Quick
        trace_merge_aligns_clocks;
      Alcotest.test_case "metrics to_json parses" `Quick metrics_json_parses;
      Alcotest.test_case "json edge cases" `Quick json_edge_cases;
      Alcotest.test_case "profile attribution tree" `Quick profile_attribution;
      Alcotest.test_case "profile exports parse" `Quick profile_exports_parse;
      Alcotest.test_case "spool dirs are mkdir -p" `Quick spool_mkdir_p;
      Alcotest.test_case "session spools one file per lane" `Quick
        session_spools_lane;
      Alcotest.test_case "session without a dir writes nothing" `Quick
        session_without_dir_writes_nothing;
    ] )
