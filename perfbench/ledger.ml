(* The per-layer ledger of a traced run.

   Process layers ([server], [router], [net]) come from the daemons'
   and the router's --log lines, joined to client samples by
   correlation id. In-process layers ([wire], [graph6], [server.cache],
   [simulator], [schemes], [randomized], [partition], router key) are
   timed by calling their public functions here, on the frames and
   instances the run actually sent, each call inside a trace span. *)

let now = Obs.Clock.now_ns

type line = {
  req : string;
  cache : string;
  queue_us : float;
  compute_us : float;
  latency_us : float;
}

(* rid -> last line logged for it (a retried rid logs once per
   attempt; the last attempt is the one that answered), over the bytes
   of the log from offset [from] on. *)
let read_log ~from path =
  let tbl = Hashtbl.create 4096 in
  let text = Procs.read_file path in
  let text = String.sub text from (max 0 (String.length text - from)) in
  List.iter
    (fun l ->
      match Obs.Json.parse l with
      | Ok j ->
          let num k =
            Option.value ~default:0.0
              (Option.bind (Obs.Json.member k j) Obs.Json.to_float_opt)
          in
          let str k =
            Option.value ~default:""
              (Option.bind (Obs.Json.member k j) Obs.Json.to_string_opt)
          in
          Hashtbl.replace tbl
            (int_of_float (num "rid"))
            {
              req = str "req";
              cache = str "cache";
              queue_us = num "queue_wait_ns" /. 1e3;
              compute_us = num "compute_ns" /. 1e3;
              latency_us = num "latency_us";
            }
      | Error _ -> ())
    (String.split_on_char '\n' text);
  tbl

let compute_kinds = [ "verify"; "prove"; "batch"; "verify_sampled"; "verify_partition" ]

type metrics = (string * float * string) list  (** name, value, unit *)

(* --- process layers ---------------------------------------------------- *)

let rtt_us (s : Loop.sample) = float_of_int (s.Loop.t1 - s.Loop.t0) /. 1e3

let process_layers ~(backend : (int, line) Hashtbl.t) ~(router : (int, line) Hashtbl.t option)
    (samples : Loop.sample list) : metrics =
  let p q l = Stats.or_zero (Stats.quantile q l) in
  (* every compute request a daemon served in the window, including
     router-split batch legs and partition shards (router-allocated
     rids) *)
  let served =
    Hashtbl.fold (fun _ l acc -> if List.mem l.req compute_kinds then l :: acc else acc) backend []
  in
  let queue = List.map (fun l -> l.queue_us) served in
  let compute = List.map (fun l -> l.compute_us) served in
  (* the per-request ledger: client round trip = outside + hop + frame
     + queue + compute, over samples whose rid every hop logged *)
  let joined =
    List.filter_map
      (fun (s : Loop.sample) ->
        match (Hashtbl.find_opt backend s.Loop.rid, router) with
        | None, _ -> None
        | Some b, None -> Some (s, b, None)
        | Some b, Some r -> (
            match Hashtbl.find_opt r s.Loop.rid with
            | Some rl -> Some (s, b, Some rl)
            | None -> None))
      samples
  in
  let first_hop (_, b, r) = match r with Some rl -> rl.latency_us | None -> b.latency_us in
  let outside = List.map (fun ((s, _, _) as j) -> rtt_us s -. first_hop j) joined in
  let frame = List.map (fun (_, b, _) -> b.latency_us -. b.queue_us -. b.compute_us) joined in
  let hop =
    List.filter_map
      (fun (_, b, r) -> Option.map (fun rl -> rl.latency_us -. b.latency_us) r)
      joined
  in
  let rtt_total = Stats.sum (List.map (fun (s, _, _) -> rtt_us s) joined) in
  let joinable =
    List.filter
      (fun (s : Loop.sample) -> match s.Loop.op with Workload.Partition _ -> false | _ -> true)
      samples
  in
  [
    ("server.queue_wait_p50_us", p 0.5 queue, "us");
    ("server.queue_wait_p99_us", p 0.99 queue, "us");
    ("server.compute_p50_us", p 0.5 compute, "us");
    ("server.compute_p99_us", p 0.99 compute, "us");
    ("server.frame_p50_us", p 0.5 frame, "us");
    ("net.outside_p50_us", p 0.5 outside, "us");
    ("router.hop_p50_us", p 0.5 hop, "us");
    ("router.hop_p99_us", p 0.99 hop, "us");
    ( "ledger.rtt_unaccounted_share",
      (if rtt_total > 0.0 then Stats.sum outside /. rtt_total else 0.0),
      "ratio" );
    ( "ledger.joined_share",
      (match joinable with
      | [] -> 0.0
      | l -> float_of_int (List.length joined) /. float_of_int (List.length l)),
      "ratio" );
  ]

(* --- in-process replays ------------------------------------------------ *)

type acc = { mutable total : int; mutable count : int }  (** ns, or bytes *)

let acc () = { total = 0; count = 0 }
let us_per a = if a.count = 0 then 0.0 else float_of_int a.total /. 1e3 /. float_of_int a.count

(* Time [f] and record one span named after its layer. The engine's
   own spans stay off while [f] runs, so the trace holds one span per
   replayed call and the timing carries no per-node span cost. *)
let timed a name f =
  let was = !Obs.Trace.enabled in
  Obs.Trace.enabled := false;
  let t0 = now () in
  let r = f () in
  let dt = now () - t0 in
  Obs.Trace.enabled := was;
  Obs.Trace.complete name ~t0_ns:t0 ~dur_ns:dt;
  a.total <- a.total + dt;
  a.count <- a.count + 1;
  (r, dt)

let cache_key scheme graph6 = scheme ^ "/" ^ Digest.to_hex (Digest.string graph6)

type replay = {
  encode : acc;
  decode : acc;
  bytes : acc;
  g6 : acc;
  key : acc;
  compile : acc;
  ball : acc;
  eval : acc;
  verify : acc;
  prove : acc;
  sampled : acc;
  rkey : acc;
  pmake : acc;
  mutable ghost : float list;
  mutable replayed_compute_us : float;
  mutable logged_compute_us : float;
}

(* one arena reused across replays, like a daemon worker domain's *)
let arena = Simulator.arena ()

(* Replay one graph-carrying op the way the daemon runs it: key, then
   (on a logged miss) decode + compile, then the op's own work.
   Returns the replayed nanoseconds. *)
let replay_op r (w : Workload.t) ~miss ~rid op_kind k tampered =
  let i = w.Workload.instances.(k) in
  let _, t_key = timed r.key "replay.server.cache.key" (fun () -> cache_key i.Workload.scheme i.Workload.graph6) in
  let t_miss =
    if miss then begin
      let g, t_dec =
        timed r.g6 "replay.graph6.decode" (fun () -> Graph6.decode_res i.Workload.graph6)
      in
      let inst = Instance.of_graph (Result.get_ok g) in
      let _, t_comp = timed r.compile "replay.simulator.compile" (fun () -> Simulator.compile inst) in
      t_dec + t_comp
    end
    else 0
  in
  let sch = i.Workload.sch and compiled = i.Workload.compiled in
  let radius = sch.Scheme.radius in
  let full_verify proof =
    snd
      (timed r.verify "replay.simulator.verify" (fun () ->
           Simulator.run_verifier ~compiled ~arena (Simulator.compiled_instance compiled) proof
             ~radius (Workload.safe_verifier sch)))
  in
  let t_work =
    match op_kind with
    | `Verify ->
        let proof = Workload.proof_of i tampered in
        let nodes = Graph.nodes (Instance.graph (Simulator.compiled_instance compiled)) in
        let views, _ =
          timed r.ball "replay.simulator.ball" (fun () ->
              List.map (fun v -> Simulator.view_at compiled proof ~radius v) nodes)
        in
        ignore
          (timed r.eval "replay.simulator.eval" (fun () ->
               List.map (Workload.safe_verifier sch) views));
        full_verify proof
    | `Prove ->
        snd
          (timed r.prove "replay.schemes.prove" (fun () ->
               sch.Scheme.prover (Simulator.compiled_instance compiled)))
    | `Sampled ->
        let proof, _ = Workload.sampled_proof i ~rid ~tampered in
        let o, t =
          timed r.sampled "replay.randomized.sampled" (fun () ->
              Randomized_scheme.run ~arena Workload.sampled_rs compiled proof ~seed:rid
                ~queries:Workload.sampled_queries)
        in
        if o.Randomized_scheme.accepted then t else t + full_verify proof
  in
  t_key + t_miss + t_work

let replay_budget_ns = 4_000_000_000
let replay_per_conn = 200

let replay (w : Workload.t) ~(backend : (int, line) Hashtbl.t) (samples_by_conn : Loop.sample list list) =
  let r =
    {
      encode = acc (); decode = acc (); bytes = acc (); g6 = acc (); key = acc ();
      compile = acc (); ball = acc (); eval = acc (); verify = acc (); prove = acc ();
      sampled = acc (); rkey = acc (); pmake = acc (); ghost = [];
      replayed_compute_us = 0.0; logged_compute_us = 0.0;
    }
  in
  let start = now () in
  let chosen = List.concat_map (Workload.take replay_per_conn) samples_by_conn in
  List.iter
    (fun (s : Loop.sample) ->
      if now () - start < replay_budget_ns then begin
        let rid = s.Loop.rid in
        match s.Loop.op with
        | Workload.Partition { inst; _ } ->
            let i = w.Workload.instances.(inst) in
            let csr = Simulator.compiled_csr i.Workload.compiled in
            let shards, _ =
              timed r.pmake "replay.partition.make" (fun () ->
                  Partition.make csr ~k:Workload.partition_k ~radius:i.Workload.sch.Scheme.radius)
            in
            let total = Array.fold_left (fun a sh -> a + Partition.shard_n sh) 0 shards in
            r.ghost <- (float_of_int (total - i.Workload.n) /. float_of_int i.Workload.n) :: r.ghost
        | op -> (
            match Workload.request w ~rid op with
            | None -> ()
            | Some req ->
                let frame, _ =
                  timed r.encode "replay.wire.encode" (fun () -> Wire.encode_request ~id:rid req)
                in
                r.bytes.total <- r.bytes.total + String.length frame;
                r.bytes.count <- r.bytes.count + 1;
                ignore (timed r.decode "replay.wire.decode" (fun () -> Wire.decode_request frame));
                if w.Workload.routed then
                  ignore (timed r.rkey "replay.router.key" (fun () -> Router.request_key req));
                let line = Hashtbl.find_opt backend rid in
                let miss = match line with Some l -> l.cache = "miss" | None -> false in
                let replayed =
                  match op with
                  | Workload.Verify { inst; tampered } -> replay_op r w ~miss ~rid `Verify inst tampered
                  | Workload.Prove { inst } -> replay_op r w ~miss ~rid `Prove inst false
                  | Workload.Sampled { inst; tampered } ->
                      replay_op r w ~miss ~rid `Sampled inst tampered
                  | Workload.Batch { items } ->
                      (* the daemon coalesces identical ops; so does the replay *)
                      let seen = Hashtbl.create 16 in
                      Array.fold_left
                        (fun t (k, tampered) ->
                          if Hashtbl.mem seen (k, tampered) then t
                          else begin
                            Hashtbl.add seen (k, tampered) ();
                            t + replay_op r w ~miss:false ~rid `Verify k tampered
                          end)
                        0 items
                  | Workload.Partition _ -> 0
                in
                match line with
                | Some l ->
                    r.replayed_compute_us <- r.replayed_compute_us +. (float_of_int replayed /. 1e3);
                    r.logged_compute_us <- r.logged_compute_us +. l.compute_us
                | None -> ())
      end)
    chosen;
  r

(* The daemon's LRU, replayed over the run's key sequence at the
   cluster's total capacity; microseconds per lookup. *)
let lru_replay (w : Workload.t) (samples : Loop.sample list) =
  let keys =
    Array.map (fun (i : Workload.inst) -> cache_key i.Workload.scheme i.Workload.graph6) w.Workload.instances
  in
  let seq =
    List.concat_map
      (fun (s : Loop.sample) ->
        match s.Loop.op with
        | Workload.Verify { inst; _ } | Workload.Prove { inst } | Workload.Sampled { inst; _ } -> [ keys.(inst) ]
        | Workload.Batch { items } -> Array.to_list (Array.map (fun (k, _) -> keys.(k)) items)
        | Workload.Partition _ -> [])
      samples
  in
  let capacity = Workload.cache_size * if w.Workload.routed then 2 else 1 in
  let lru = Lru.create ~capacity in
  let t0 = now () in
  Obs.Trace.span "replay.server.cache.lru" (fun () ->
      List.iter (fun k -> match Lru.find lru k with Some () -> () | None -> Lru.put lru k ()) seq);
  match seq with
  | [] -> 0.0
  | _ -> float_of_int (now () - t0) /. 1e3 /. float_of_int (List.length seq)

let in_process_layers w ~backend samples_by_conn samples : metrics =
  let r = replay w ~backend samples_by_conn in
  let bytes =
    if r.bytes.count = 0 then 0.0
    else float_of_int r.bytes.total /. float_of_int r.bytes.count
  in
  [
    ("wire.request_bytes", bytes, "B/frame");
    ("wire.encode_us", us_per r.encode, "us/frame");
    ("wire.decode_us", us_per r.decode, "us/frame");
    ("graph6.decode_us", us_per r.g6, "us/miss");
    ("server.cache.key_us", us_per r.key, "us/key");
    ("server.cache.lru_us", lru_replay w samples, "us/lookup");
    ("simulator.compile_us", us_per r.compile, "us/miss");
    ("simulator.ball_us", us_per r.ball, "us/verify");
    ("simulator.eval_us", us_per r.eval, "us/verify");
    ("simulator.verify_us", us_per r.verify, "us/verify");
    ("schemes.prove_us", us_per r.prove, "us/prove");
    ( "server.compute_unaccounted_share",
      (if r.logged_compute_us > 0.0 then 1.0 -. (r.replayed_compute_us /. r.logged_compute_us)
       else 0.0),
      "ratio" );
    ("router.key_us", us_per r.rkey, "us/frame");
    ("randomized.sampled_us", us_per r.sampled, "us/op");
    ("partition.make_us", us_per r.pmake, "us/op");
    ("partition.ghost_share", Stats.mean r.ghost, "ratio");
  ]
