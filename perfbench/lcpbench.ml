(* lcpbench — one run of one workload against real `lcp serve` /
   `lcp route` processes.

     lcpbench.exe --workload NAME --seed N --seconds S --trace 0|1
                  --lcp PATH [--dir DIR] [--out FILE]
                  [--commit SHA] [--source-digest HEX]

   --trace 0 measures the end-to-end metrics with logging and tracing
   off, setting the cluster up several times (the median is setup_s).
   --trace 1 runs an untraced and a traced cluster side by side in
   alternating one-second phases and reports the per-layer ledger.
   Every metric is printed by name with its unit; the run record is
   appended to --out as one JSON line, and the last line of stdout is
   the summary object. Exit code 1 on any wrong verdict. *)

let now = Obs.Clock.now_ns

(* Set-ups per untraced run, of which setup_s is the median: a bare
   spawn-until-ready takes milliseconds and needs more of them. *)
let setups (w : Workload.t) = if w.Workload.warm then 3 else 9

(* Closed-loop connections: one per core. *)
let connections = max 1 (min 8 (Domain.recommended_domain_count ()))

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : int;
  mutable lcp : string;
  mutable dir : string;
  mutable out : string;
  mutable commit : string;
  mutable source_digest : string;
}

let parse_args () =
  let a =
    {
      workload = ""; seed = 1; seconds = 30.0; trace = 0;
      lcp = "_build/default/bin/lcp.exe"; dir = "perfbench/out";
      out = "perfbench/out/results.jsonl";
      commit = "unknown"; source_digest = "unknown";
    }
  in
  Arg.parse
    [
      ("--workload", Arg.String (fun s -> a.workload <- s), "NAME workload to run");
      ("--seed", Arg.Int (fun n -> a.seed <- n), "N input seed");
      ("--seconds", Arg.Float (fun f -> a.seconds <- f), "S timed seconds");
      ("--trace", Arg.Int (fun n -> a.trace <- n), "0|1 traced per-layer run");
      ("--lcp", Arg.String (fun s -> a.lcp <- s), "PATH lcp binary");
      ("--dir", Arg.String (fun s -> a.dir <- s), "DIR logs, process output, traces");
      ("--out", Arg.String (fun s -> a.out <- s), "FILE result record (JSON lines, appended)");
      ("--commit", Arg.String (fun s -> a.commit <- s), "SHA recorded in the result");
      ("--source-digest", Arg.String (fun s -> a.source_digest <- s), "HEX recorded in the result");
    ]
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "lcpbench --workload NAME --seed N --seconds S --trace 0|1";
  a

let us ns = float_of_int ns /. 1e3

(* --- end-to-end (untraced) -------------------------------------------- *)

(* The untraced window runs as this many consecutive sub-windows.
   Throughput, median latency and CPU per op are the median over them,
   so a slow stretch of a shared host that covers fewer than half of
   them does not move the result. *)
let subwindows = 6

(* p99 is taken over the frames of the sub-windows left after dropping
   this many with the highest p99 of their own: a whole-run p99 would
   follow one stalled second, whose frames alone outnumber the top 1%.
   The four kept still leave more than 10 frames beyond p99 on every
   workload, which one sub-window alone does not. *)
let p99_dropped = 2

(* Round trips split by op kind: count, p50 and p99 in microseconds. *)
let by_kind (samples : Loop.sample list) =
  List.filter_map
    (fun kind ->
      match
        List.filter_map
          (fun (s : Loop.sample) ->
            if Workload.kind_of s.Loop.op = kind then Some (us (s.Loop.t1 - s.Loop.t0)) else None)
          samples
      with
      | [] -> None
      | l ->
          Some
            ( kind,
              Obs.Json.Obj
                [
                  ("count", Obs.Json.Num (float_of_int (List.length l)));
                  ("p50_us", Obs.Json.Num (Stats.quantile 0.5 l));
                  ("p99_us", Obs.Json.Num (Stats.quantile 0.99 l));
                ] ))
    [ "verify"; "prove"; "sampled"; "batch"; "partition" ]

let end_to_end a w =
  let setup_times = ref [] and cluster = ref None in
  let setups = setups w in
  for k = 1 to setups do
    let t0 = now () in
    let c = Loop.start ~lcp:a.lcp ~dir:a.dir ~tag:(Printf.sprintf "setup%d" k) ~logs:false w in
    if w.Workload.warm then Loop.warm w c;
    setup_times := (float_of_int (now () - t0) /. 1e9) :: !setup_times;
    if k < setups then Loop.stop c else cluster := Some c
  done;
  let c = Option.get !cluster in
  let cs = Loop.conns w connections in
  let sub =
    List.init subwindows (fun _ ->
        let start = now () in
        let cost = Loop.phase w c cs ~traced:false ~seconds:(a.seconds /. float_of_int subwindows) in
        (start, cost))
  in
  Loop.close_conns cs;
  let rss = Stats.sum (List.map (fun p -> Procs.hwm_mb p.Procs.pid) (Loop.procs c)) in
  Loop.stop c;
  let samples = Loop.samples cs in
  let rtt (s : Loop.sample) = us (s.Loop.t1 - s.Loop.t0) in
  let per_sub =
    List.map
      (fun (start, cost) ->
        let mine =
          List.filter
            (fun (s : Loop.sample) -> s.Loop.t0 >= start && s.Loop.t0 < start + cost.Loop.wall_ns)
            samples
        in
        let ops = float_of_int (max 1 (Loop.ops mine)) in
        ( ops /. (float_of_int cost.Loop.wall_ns /. 1e9),
          List.map rtt mine,
          (cost.Loop.daemon_cpu_us +. cost.Loop.router_cpu_us) /. ops ))
      sub
  in
  let col f = List.map f per_sub in
  let rates = col (fun (r, _, _) -> r)
  and lats = col (fun (_, l, _) -> l)
  and cpus = col (fun (_, _, c) -> c) in
  let p50s = List.map Stats.median lats and p99s = List.map (Stats.quantile 0.99) lats in
  let p99_frames =
    List.concat_map snd
      (Workload.take (subwindows - p99_dropped)
         (List.sort (fun (a, _) (b, _) -> compare a b) (List.combine p99s lats)))
  in
  let cost = List.fold_left (fun acc (_, c) -> Loop.add_cost acc c) Loop.zero_cost sub in
  let lat = List.map rtt samples in
  let metrics =
    [
      ("ops_per_s", Stats.median rates, "ops/s");
      ("latency_p50_us", Stats.median p50s, "us");
      ("latency_p99_us", Stats.quantile 0.99 p99_frames, "us");
      ("setup_s", Stats.median !setup_times, "s");
      ("cpu_us_per_op", Stats.median cpus, "us/op");
      ("peak_rss_mb", rss, "MiB");
    ]
  in
  let nums l = Obs.Json.Arr (List.map (fun x -> Obs.Json.Num x) l) in
  let runs =
    [
      ("setup_s", nums (List.rev !setup_times));
      ("subwindow_ops_per_s", nums rates);
      ("subwindow_latency_p50_us", nums p50s);
      ("subwindow_latency_p99_us", nums p99s);
      ("latency_p99_frames", Obs.Json.Num (float_of_int (List.length p99_frames)));
      ("subwindow_cpu_us_per_op", nums cpus);
      ( "latency_us",
        Obs.Json.Obj
          (("count", Obs.Json.Num (float_of_int (List.length lat)))
          :: List.map
               (fun (k, q) -> (k, Obs.Json.Num (Stats.quantile q lat)))
               [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p999", 0.999); ("max", 1.0) ]) );
      ("client_cpu_share", Obs.Json.Num (cost.Loop.client_cpu_s /. (float_of_int cost.Loop.wall_ns /. 1e9)));
      ("host_steal_share", Obs.Json.Num (Loop.steal_share cost));
      ("latency_by_kind", Obs.Json.Obj (by_kind samples));
    ]
  in
  (samples, metrics, runs)

(* --- per-layer (traced) ------------------------------------------------ *)

let stats_of port =
  match Client.connect ~port () with
  | Error m -> failwith m
  | Ok c ->
      let r = Client.call c Wire.Stats in
      Client.close c;
      (match r with Ok (Wire.Stats_reply s) -> s | _ -> failwith "no stats reply")

let metric_text port =
  match Client.connect ~port () with
  | Error m -> failwith m
  | Ok c ->
      let r = Client.call c Wire.Metrics_text in
      Client.close c;
      (match r with Ok (Wire.Metrics_text_reply s) -> s | _ -> failwith "no metrics reply")

let router_counter text name =
  Option.value ~default:0.0 (Obs.Export.find_sample text ~name ~labels:[])

let traced a w =
  let untraced = Loop.start ~lcp:a.lcp ~dir:a.dir ~tag:"plain" ~logs:false w in
  if w.Workload.warm then Loop.warm w untraced;
  let logged = Loop.start ~lcp:a.lcp ~dir:a.dir ~tag:"traced" ~logs:true w in
  if w.Workload.warm then Loop.warm w logged;
  let cs_plain = Loop.conns w connections and cs_traced = Loop.conns w connections in
  let daemon_ports = List.map (fun p -> p.Procs.port) logged.Loop.daemons in
  let stats0 = List.map stats_of daemon_ports in
  let rtext0 = Option.map (fun r -> metric_text r.Procs.port) logged.Loop.router in
  (* what the logs hold so far is the warm pass: the ledger reads only
     the lines after it *)
  let log_start =
    List.map (fun p -> (p.Procs.pid, Procs.file_size (Option.get p.Procs.log))) (Loop.procs logged)
  in
  let read_log p = Ledger.read_log ~from:(List.assoc p.Procs.pid log_start) (Option.get p.Procs.log) in
  Obs.Trace.set_capacity (1 lsl 20);
  Obs.enable ~metrics:false ~trace:true ();
  Obs.Trace.enabled := false;
  let plain_cost = ref Loop.zero_cost and traced_cost = ref Loop.zero_cost in
  let phases = max 2 (int_of_float a.seconds) in
  let phase_s = a.seconds /. float_of_int phases in
  for k = 0 to phases - 1 do
    if k mod 2 = 0 then
      plain_cost := Loop.add_cost !plain_cost (Loop.phase w untraced cs_plain ~traced:false ~seconds:phase_s)
    else begin
      Obs.Trace.enabled := true;
      traced_cost := Loop.add_cost !traced_cost (Loop.phase w logged cs_traced ~traced:true ~seconds:phase_s);
      Obs.Trace.enabled := false
    end
  done;
  Loop.close_conns cs_plain;
  Loop.close_conns cs_traced;
  let stats1 = List.map stats_of daemon_ports in
  let rtext1 = Option.map (fun r -> metric_text r.Procs.port) logged.Loop.router in
  let daemon_rss =
    Stats.sum (List.map (fun p -> Procs.hwm_mb p.Procs.pid) untraced.Loop.daemons)
  in
  Loop.stop untraced;
  Loop.stop logged;
  let plain = Loop.samples cs_plain and samples = Loop.samples cs_traced in
  let ops_plain = float_of_int (max 1 (Loop.ops plain)) in
  let rate ops cost = float_of_int ops /. (float_of_int cost.Loop.wall_ns /. 1e9) in
  let rate_plain = rate (Loop.ops plain) !plain_cost
  and rate_traced = rate (Loop.ops samples) !traced_cost in
  (* logs are complete once the processes have exited *)
  let backend = Hashtbl.create 4096 in
  List.iter (fun p -> Hashtbl.iter (Hashtbl.replace backend) (read_log p)) logged.Loop.daemons;
  let router = Option.map read_log logged.Loop.router in
  Obs.Trace.enabled := true;
  let by_conn =
    Array.to_list (Array.map (fun c -> List.rev c.Loop.samples) cs_traced)
  in
  let layers = Ledger.in_process_layers w ~backend by_conn samples in
  Obs.Trace.enabled := false;
  let trace_file =
    Filename.concat a.dir (Printf.sprintf "trace-%s-%d.json" w.Workload.name a.seed)
  in
  Obs.Trace.export trace_file;
  (* daemon counters over the traced window *)
  let delta f = List.map2 (fun s0 s1 -> float_of_int (f s1 - f s0)) stats0 stats1 in
  let hits = Stats.sum (delta (fun s -> s.Wire.cache_hits))
  and misses = Stats.sum (delta (fun s -> s.Wire.cache_misses)) in
  let per_backend = delta (fun s -> s.Wire.requests) in
  let rdelta name =
    match (rtext0, rtext1) with
    | Some t0, Some t1 -> router_counter t1 name -. router_counter t0 name
    | _ -> 0.0
  in
  let of_kind k =
    List.filter (fun (s : Loop.sample) -> Workload.kind_of s.Loop.op = k) samples
  in
  let rtts l = List.map Ledger.rtt_us l in
  let sampled =
    List.filter_map
      (fun (s : Loop.sample) ->
        match s.Loop.reply with
        | Loop.Resp (Wire.Sampled_verified { escalated; bits_read; _ }) -> Some (escalated, bits_read)
        | _ -> None)
      samples
  in
  let n_sampled = float_of_int (List.length sampled) in
  let ratio num den = if den > 0.0 then num /. den else 0.0 in
  let batches = of_kind "batch" in
  let p50 l = Stats.or_zero (Stats.median l) in
  let metrics =
    layers
    @ Ledger.process_layers ~backend ~router samples
    @ [
        ("server.cache.hit_ratio", ratio hits (hits +. misses), "ratio");
        ("router.retries", rdelta "lcp_router_retries_total", "count");
        ("router.no_backend", rdelta "lcp_router_no_backend_total", "count");
        ( "router.backend_skew",
          (if w.Workload.routed then
             ratio (List.fold_left max 0.0 per_backend) (List.fold_left min infinity per_backend)
           else 0.0),
          "ratio" );
        ("randomized.escalation_ratio", ratio (float_of_int (List.length (List.filter fst sampled))) n_sampled, "ratio");
        ( "randomized.bits_read_per_op",
          ratio (float_of_int (List.fold_left (fun a (_, b) -> a + b) 0 sampled)) n_sampled,
          "bits/op" );
        ("batch.frame_p50_us", p50 (rtts batches), "us");
        ( "batch.ops_per_frame",
          ratio (float_of_int (Loop.ops batches)) (float_of_int (List.length batches)),
          "ops/frame" );
        ("partition.fanout_p50_us", p50 (rtts (of_kind "partition")), "us");
        ("proc.daemon_cpu_us_per_op", !plain_cost.Loop.daemon_cpu_us /. ops_plain, "us/op");
        ("proc.router_cpu_us_per_op", !plain_cost.Loop.router_cpu_us /. ops_plain, "us/op");
        ("proc.daemon_rss_mb", daemon_rss, "MiB");
        ( "client.cpu_share",
          !plain_cost.Loop.client_cpu_s /. (float_of_int !plain_cost.Loop.wall_ns /. 1e9),
          "ratio" );
        ("client.alloc_bytes_per_op", !plain_cost.Loop.alloc_bytes /. ops_plain, "B/op");
        ("obs.traced_overhead_share", ratio (rate_plain -. rate_traced) rate_plain, "ratio");
      ]
  in
  let runs =
    [
      ("host_steal_share", Obs.Json.Num (Loop.steal_share (Loop.add_cost !plain_cost !traced_cost)));
      ("untraced_ops_per_s", Obs.Json.Num rate_plain);
      ("traced_ops_per_s", Obs.Json.Num rate_traced);
      ("trace_file", Obs.Json.Str trace_file);
      ("trace_events", Obs.Json.Num (float_of_int (Obs.Trace.recorded ())));
      ("trace_dropped", Obs.Json.Num (float_of_int (Obs.Trace.dropped ())));
    ]
  in
  (plain @ samples, metrics, runs)

(* --- main -------------------------------------------------------------- *)

let metric_json (name, v, unit_) =
  (name, Obs.Json.Obj [ ("value", Obs.Json.Num v); ("unit", Obs.Json.Str unit_) ])

let main () =
  let a = parse_args () in
  if not (List.mem a.workload Workload.names) then begin
    prerr_endline ("unknown workload; one of: " ^ String.concat ", " Workload.names);
    exit 2
  end;
  if not (Sys.file_exists a.lcp) then begin
    prerr_endline ("lcp binary not found: " ^ a.lcp);
    exit 2
  end;
  Obs.Trace.mkdir_p a.dir;
  let g0 = now () in
  let w = Option.get (Workload.make a.workload ~seed:a.seed) in
  let gen_s = float_of_int (now () - g0) /. 1e9 in
  Printf.printf "workload %s seed %d: %d instances generated and checked in %.2f s\n%!"
    w.Workload.name a.seed (Array.length w.Workload.instances) gen_s;
  let samples, metrics, runs = if a.trace = 1 then traced a w else end_to_end a w in
  let attempted = Loop.ops samples in
  let failed = Loop.check w samples in
  let error_rate = float_of_int failed /. float_of_int (max 1 attempted) in
  let correct = failed = 0 in
  List.iter (fun (n, v, u) -> Printf.printf "%-34s %16.4f %s\n" n v u) metrics;
  Printf.printf "%-34s %16.6f ratio (%d of %d ops)\n%!" "error_rate" error_rate failed attempted;
  let field k v = (k, Obs.Json.Str v) in
  let num k v = (k, Obs.Json.Num v) in
  let procs =
    List.init (if w.Workload.routed then 2 else 1) (fun _ ->
        Obs.Json.Obj [ field "role" "daemon"; num "jobs" 1.0; num "cache_size" (float_of_int Workload.cache_size) ])
    @ (if w.Workload.routed then [ Obs.Json.Obj [ field "role" "router"; field "jobs" "n/a (threads)" ] ] else [])
  in
  let record =
    Obs.Json.Obj
      [
        num "schema" 1.0;
        field "workload" w.Workload.name;
        num "seed" (float_of_int a.seed);
        num "seconds" a.seconds;
        num "trace" (float_of_int a.trace);
        ( "host",
          Obs.Json.Obj
            [
              num "nproc" (float_of_int (Domain.recommended_domain_count ()));
              field "ocaml" Sys.ocaml_version;
              field "commit" a.commit;
              field "source_digest" a.source_digest;
            ] );
        ("processes", Obs.Json.Arr procs);
        ( "client",
          Obs.Json.Obj [ num "connections" (float_of_int connections); field "loop" "closed" ] );
        ("params", Obs.Json.Obj (List.map (fun (k, v) -> field k v) (Workload.params w)));
        num "generate_s" gen_s;
        ("correct", Obs.Json.Bool correct);
        num "attempted" (float_of_int attempted);
        num "failed" (float_of_int failed);
        num "error_rate" error_rate;
        ("metrics", Obs.Json.Obj (List.map metric_json metrics));
        ("runs", Obs.Json.Obj runs);
      ]
  in
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644 a.out (fun oc ->
      output_string oc (Obs.Json.to_string record ^ "\n"));
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool correct);
            num "attempted" (float_of_int attempted);
            num "failed" (float_of_int failed);
            ("metrics", Obs.Json.Obj (List.map metric_json metrics));
          ]));
  exit (if correct then 0 else 1)

let () =
  try main ()
  with Failure m ->
    Procs.reap_all ();
    prerr_endline ("lcpbench: " ^ m);
    exit 1
