(* The cluster layer, bottom-up: ring placement properties, the
   bounded-load balancer's never-pick-a-dead-backend rule, the hedge
   cell's exactly-one-winner guarantee, the health eject/cooldown/
   reinstate cycle on a virtual clock, the deterministic backoff
   schedule — and then the router end-to-end over two in-process
   daemons: zero client-visible errors through a mid-run backend kill,
   and cluster-wide cache affinity (total misses match a single warmed
   daemon). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Ring: deterministic placement, fair distribution, and the
   consistent-hashing stability bound — removing a backend moves only
   its own keys, about 1/n of the total. *)

let keys = List.init 2_000 (Printf.sprintf "key-%d")

let ring_distribution () =
  let n = 5 in
  let ring = Ring.create n in
  let counts = Array.make n 0 in
  List.iter
    (fun k ->
      let owner = List.hd (Ring.order ring k) in
      counts.(owner) <- counts.(owner) + 1)
    keys;
  (* expectation is 400 each; 64 vnodes keeps the spread well inside
     a factor of two of fair *)
  Array.iteri
    (fun i c ->
      check (Printf.sprintf "backend %d owns a fair share (got %d)" i c) true
        (c > 150 && c < 800))
    counts

let ring_removal_stability () =
  let n = 5 in
  let ring = Ring.create n in
  let removed = 2 in
  (* "removal" is a filter over the walk order, so a key not owned by
     the removed backend must keep its owner... *)
  let moved =
    List.fold_left
      (fun moved k ->
        match Ring.order ring k with
        | o :: _ when o <> removed ->
            let o' =
              List.hd (List.filter (fun b -> b <> removed) (Ring.order ring k))
            in
            check_int "surviving key keeps its owner" o o';
            moved
        | _ -> moved + 1)
      0 keys
  in
  (* ...and only the removed backend's keys move: about 1/5 of them *)
  check (Printf.sprintf "about 1/5 of keys move (got %d/2000)" moved) true
    (moved > 100 && moved < 800)

let ring_order_prop =
  QCheck.Test.make ~name:"ring order is a deterministic permutation" ~count:200
    QCheck.(
      make
        Gen.(
          let* n = int_range 1 8 in
          let* key = string_size ~gen:printable (int_range 0 40) in
          return (n, key)))
    (fun (n, key) ->
      let r1 = Ring.create n and r2 = Ring.create n in
      let o = Ring.order r1 key in
      List.sort compare o = List.init n Fun.id
      && o = Ring.order r2 key)

(* ------------------------------------------------------------------ *)
(* Balancer: bounded-load spill, the avoid list, and the hard rule
   that a Dead backend is never picked. *)

let balancer_spill () =
  let ring = Ring.create 2 in
  let health = Health.create 2 in
  let b = Balancer.create ~load_factor:1.0 ring health in
  let key = "hot-key" in
  let owner = List.hd (Ring.order ring key) in
  let spill = 1 - owner in
  (* with load factor 1 and nothing else in flight, the cap is 1: the
     first acquire sticks to the owner, the second must spill *)
  check "first pick is the owner" true (Balancer.acquire b ~key ~avoid:[] = Some owner);
  check "hot key spills to the next ring node" true
    (Balancer.acquire b ~key ~avoid:[] = Some spill);
  check_int "accounting: two in flight" 2 (Balancer.total_inflight b);
  Balancer.release b owner;
  Balancer.release b spill;
  check_int "released down to zero" 0 (Balancer.total_inflight b);
  (* release never goes negative *)
  Balancer.release b owner;
  check_int "release is clamped" 0 (Balancer.total_inflight b)

let balancer_never_dead () =
  let ring = Ring.create 3 in
  let health = Health.create ~fail_threshold:1 3 in
  let b = Balancer.create ring health in
  Health.observe_failure health 0;
  check "threshold 1 ejects immediately" true (Health.state health 0 = Health.Dead);
  (* over many keys and even under heavy load pressure, backend 0 is
     never picked — the cap shapes load, Dead is absolute *)
  List.iter
    (fun k ->
      match Balancer.acquire b ~key:k ~avoid:[] with
      | Some 0 -> Alcotest.failf "dead backend picked for %s" k
      | Some _ -> () (* left in flight on purpose: pressure builds *)
      | None -> Alcotest.fail "no backend with two alive")
    keys;
  (* avoid carries a request's already-failed backends: with 1 dead
     and the other two avoided there is nothing left *)
  check "dead + avoided = None" true
    (Balancer.acquire b ~key:"k" ~avoid:[ 1; 2 ] = None);
  (* a Saturated backend is used only when no Ready one can take it *)
  let h2 = Health.create 2 in
  let b2 = Balancer.create ~load_factor:50.0 (Ring.create 2) h2 in
  Health.observe_ok h2 0 ~ready:false;
  Health.observe_ok h2 1 ~ready:true;
  List.iter
    (fun k ->
      match Balancer.acquire b2 ~key:k ~avoid:[] with
      | Some 1 -> Balancer.release b2 1
      | Some 0 -> Alcotest.failf "saturated backend preferred for %s" k
      | _ -> Alcotest.fail "no backend")
    keys

(* ------------------------------------------------------------------ *)
(* Hedge: exactly one offer wins, losers learn it synchronously, and
   a full set of failures surfaces as All_failed — never a hang. *)

let hedge_first_wins () =
  let c = Hedge.create ~rid:7 ~legs:2 in
  check "first offer wins" true (Hedge.offer c ~rid:7 "a");
  check "second offer loses" false (Hedge.offer c ~rid:7 "b");
  check "await sees the winner" true (Hedge.await c ~timeout_ms:0 = Hedge.Winner "a");
  Hedge.dispose c;
  check "offers after dispose are no-ops" false (Hedge.offer c ~rid:7 "c")

let hedge_rid_mismatch () =
  (* a stale leg carrying another request's rid can never win *)
  let c = Hedge.create ~rid:42 ~legs:1 in
  check "wrong rid rejected" false (Hedge.offer c ~rid:41 "stale");
  check "still undecided" true (Hedge.await c ~timeout_ms:0 = Hedge.Timeout);
  check "right rid wins" true (Hedge.offer c ~rid:42 "fresh");
  Hedge.dispose c

let hedge_all_failed_and_timeout () =
  let c = Hedge.create ~rid:1 ~legs:1 in
  (* add_leg before spawning the hedge: one failure is not yet final *)
  Hedge.add_leg c;
  Hedge.fail c;
  check "one failure of two legs: still racing" true
    (Hedge.await c ~timeout_ms:0 = Hedge.Timeout);
  check "await times out while racing" true
    (Hedge.await c ~timeout_ms:1 = Hedge.Timeout);
  Hedge.fail c;
  check "all legs failed" true (Hedge.await c ~timeout_ms:0 = Hedge.All_failed);
  Hedge.dispose c

let hedge_no_double_count () =
  (* the property the router's counters rely on: N racing threads,
     exactly one offer returns true, and await agrees with it *)
  let c = Hedge.create ~rid:9 ~legs:4 in
  let wins = Array.make 4 false in
  let ths =
    List.init 4 (fun i ->
        Thread.create (fun () -> wins.(i) <- Hedge.offer c ~rid:9 i) ())
  in
  let outcome = Hedge.await c ~timeout_ms:(-1) in
  List.iter Thread.join ths;
  let winners = Array.to_list wins |> List.filter Fun.id |> List.length in
  check_int "exactly one winner" 1 winners;
  (match outcome with
  | Hedge.Winner v -> check "await returns the winning leg's value" true wins.(v)
  | _ -> Alcotest.fail "expected a winner");
  Hedge.dispose c

(* ------------------------------------------------------------------ *)
(* Health: the eject / cooldown / reinstate cycle, entirely on a
   virtual clock. *)

let ms = 1_000_000

let health_cycle () =
  let h = Health.create ~fail_threshold:2 ~cooldown_ms:100 2 in
  check "starts ready" true (Health.state h 0 = Health.Ready);
  Health.observe_failure ~now_ns:(0 * ms) h 0;
  check "one failure under the threshold" true (Health.state h 0 = Health.Ready);
  Health.observe_failure ~now_ns:(1 * ms) h 0;
  check "second consecutive failure ejects" true (Health.state h 0 = Health.Dead);
  check_int "alive excludes the dead one" 1 (Health.alive h);
  (* flap suppression: a lucky probe inside the cooldown changes nothing *)
  Health.observe_ok ~now_ns:(50 * ms) h 0 ~ready:true;
  check "ok during cooldown ignored" true (Health.state h 0 = Health.Dead);
  (* a failure while dead restarts the cooldown *)
  Health.observe_failure ~now_ns:(80 * ms) h 0;
  Health.observe_ok ~now_ns:(150 * ms) h 0 ~ready:true;
  check "restarted cooldown still holds" true (Health.state h 0 = Health.Dead);
  (* first ok after the (restarted) cooldown reinstates *)
  Health.observe_ok ~now_ns:(185 * ms) h 0 ~ready:true;
  check "reinstated after cooldown" true (Health.state h 0 = Health.Ready);
  check_int "alive back to two" 2 (Health.alive h);
  (* an ok with ready=false is reachable-but-shedding: Saturated *)
  Health.observe_ok h 1 ~ready:false;
  check "not-ready probe saturates" true (Health.state h 1 = Health.Saturated);
  check_int "saturated still counts as alive" 2 (Health.alive h);
  (* a success resets the failure streak: two non-consecutive failures
     never eject *)
  Health.observe_failure ~now_ns:(200 * ms) h 1;
  Health.observe_ok ~now_ns:(201 * ms) h 1 ~ready:true;
  Health.observe_failure ~now_ns:(202 * ms) h 1;
  check "streak reset by success" true (Health.state h 1 <> Health.Dead)

(* ------------------------------------------------------------------ *)
(* Backoff: a pure function of (seed, attempt), bounded by the jitter
   band — and the connect retry loop drives it through the injectable
   sleep hook, so no wall time passes in the test. *)

let backoff_deterministic () =
  let b = Client.Backoff.default in
  List.iter
    (fun seed ->
      List.iter
        (fun attempt ->
          let d1 = Client.Backoff.delay_ms b ~seed ~attempt in
          let d2 = Client.Backoff.delay_ms b ~seed ~attempt in
          check "delay is deterministic" true (d1 = d2);
          let nominal =
            Float.min b.Client.Backoff.max_ms
              (b.Client.Backoff.base_ms
              *. (b.Client.Backoff.multiplier ** float_of_int (attempt - 1)))
          in
          let j = b.Client.Backoff.jitter in
          check
            (Printf.sprintf "delay %g within jitter band of %g" d1 nominal)
            true
            (d1 >= nominal *. (1.0 -. j) && d1 < nominal *. (1.0 +. j)))
        [ 1; 2; 3; 8; 20 ])
    [ 0; 1; 42 ];
  (* distinct seeds decorrelate: not every attempt-1 delay is equal *)
  let ds =
    List.map (fun seed -> Client.Backoff.delay_ms b ~seed ~attempt:1)
      [ 0; 1; 2; 3; 4; 5 ]
  in
  check "seeds decorrelate" true (List.sort_uniq compare ds |> List.length > 1)

(* a port that was just bound and released: nothing listens on it *)
let closed_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close fd;
  port

let connect_retry_schedule () =
  let sleeps = ref [] in
  let sleep_ms d = sleeps := d :: !sleeps in
  let port = closed_port () in
  (match Client.connect ~port ~retries:3 ~backoff_seed:42 ~sleep_ms () with
  | Ok c ->
      Client.close c;
      Alcotest.fail "connected to a closed port"
  | Error m -> check "error names the failure" true (String.length m > 0));
  let sleeps = List.rev !sleeps in
  check_int "one sleep per extra attempt" 3 (List.length sleeps);
  List.iteri
    (fun i d ->
      check_int "sleep matches the published schedule" 0
        (compare d
           (Client.Backoff.delay_ms Client.Backoff.default ~seed:42
              ~attempt:(i + 1))))
    sleeps;
  (* retries:0 is the old behaviour: fail immediately, no sleeps *)
  let count = ref 0 in
  (match Client.connect ~port ~sleep_ms:(fun _ -> incr count) () with
  | Ok c -> Client.close c; Alcotest.fail "connected to a closed port"
  | Error _ -> ());
  check_int "no retries by default" 0 !count

(* ------------------------------------------------------------------ *)
(* Router end-to-end over two in-process daemons. The probe thread is
   disabled (probe_interval_ms = 0): every health transition in these
   tests comes from passive forwarding failures or an explicit
   probe_once on a virtual clock, so nothing is timing-dependent. *)

let with_cluster ?(router = Fun.id) f =
  let mk () = Server.create { Server.default_config with port = 0; jobs = 2 } in
  let s1 = mk () in
  let th1 = Server.start s1 in
  let s2 = mk () in
  let th2 = Server.start s2 in
  let cfg =
    router
      {
        Router.default_config with
        port = 0;
        backends =
          [ ("127.0.0.1", Server.port s1); ("127.0.0.1", Server.port s2) ];
        probe_interval_ms = 0;
      }
  in
  let r = Router.create cfg in
  let rth = Router.start r in
  Fun.protect
    ~finally:(fun () ->
      Router.stop r;
      Thread.join rth;
      Server.stop s1;
      Thread.join th1;
      Server.stop s2;
      Thread.join th2)
    (fun () -> f r s1 s2)

let with_client port f =
  match Client.connect ~port () with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let call c req =
  match Client.call c req with
  | Ok resp -> resp
  | Error m -> Alcotest.failf "call: transport error %s" m

(* operator actions and probes over the wire, as lcp would send them *)
let set_draining s enable =
  with_client (Server.port s) (fun c ->
      match call c (Wire.Drain { enable }) with
      | Wire.Drain_reply { draining; _ } -> check "drain acknowledged" enable draining
      | _ -> Alcotest.fail "drain")

let router_ready r =
  with_client (Router.port r) (fun c ->
      match call c Wire.Health with
      | Wire.Health_reply h -> h.Wire.ready
      | _ -> Alcotest.fail "router health")

(* the ring the router builds for two backends (it keeps Ring's
   default vnodes) — Ring placement is deterministic, so the test can
   predict every assignment *)
let two_ring = Ring.create 2

(* the smallest cycle size >= from whose compute request is owned by
   [idx] on a two-backend ring *)
let cycle_owned_by idx ~from =
  let rec go n =
    let g6 = Graph6.encode (Builders.cycle n) in
    let key = Router.request_key (Wire.Prove { scheme = "eulerian"; graph6 = g6 }) in
    if List.hd (Ring.order two_ring key) = idx then (n, g6) else go (n + 1)
  in
  go from

let router_loadgen_and_affinity () =
  with_cluster @@ fun r s1 s2 ->
  let sizes = [ 16; 24; 32 ] in
  (match
     Client.loadgen ~port:(Router.port r) ~connections:2 ~requests:10
       ~mix:(1, 4, 0) ~scheme:"bipartite" ~sizes ()
   with
  | Error m -> Alcotest.failf "loadgen through router: %s" m
  | Ok rep ->
      check_int "every request ok" 20 rep.Client.ok;
      check_int "no client-visible errors" 0 rep.Client.errors;
      check "ids echo through the router" false
        (List.mem_assoc "id_mismatch" rep.Client.errors_by_code);
      (* the router aggregates backend stats for the report *)
      (match rep.Client.server with
      | Some s -> check "aggregated stats show cache hits" true (s.Wire.cache_hits > 0)
      | None -> Alcotest.fail "no server stats through the router"));
  (* cache affinity: every instance of a size keeps hitting the same
     daemon, so the cluster-wide miss count equals a single warmed
     daemon's — one compile per size, however the sizes are spread *)
  let m1 = (Server.stats s1).Server.cache_misses
  and m2 = (Server.stats s2).Server.cache_misses in
  check_int
    (Printf.sprintf "one compile per size across the cluster (%d + %d)" m1 m2)
    (List.length sizes) (m1 + m2);
  let st = Router.stats r in
  check "router counted the requests" true (st.Router.requests >= 20);
  check_int "no retries on a healthy cluster" 0 st.Router.retries;
  check_int "nothing unroutable" 0 st.Router.no_backend

let router_failover () =
  with_cluster @@ fun r s1 _s2 ->
  (* kill backend 0 out from under the router — no probe will warn it *)
  Server.stop s1;
  with_client (Router.port r) @@ fun c ->
  (* three distinct graphs, all keyed to the dead backend: each first
     attempt fails over and succeeds on backend 1, invisibly *)
  let rec drive n remaining =
    if remaining > 0 then begin
      let n, g6 = cycle_owned_by 0 ~from:n in
      (match call c (Wire.Prove { scheme = "eulerian"; graph6 = g6 }) with
      | Wire.Proved _ -> ()
      | _ -> Alcotest.failf "prove C%d did not fail over" n);
      drive (n + 1) (remaining - 1)
    end
  in
  drive 10 3;
  let st = Router.stats r in
  check "each failover counted as a retry" true (st.Router.retries >= 3);
  let b0 = List.nth st.Router.per_backend 0 in
  check "dead backend accumulated the errors" true (b0.Router.errors >= 3);
  (* three consecutive passive failures ejected it *)
  check "three strikes ejected backend 0" true (b0.Router.state = Health.Dead);
  check "router still ready with one backend" true (router_ready r);
  (* once ejected, requests keyed to it route straight to the
     survivor: no further retries accrue *)
  let before = (Router.stats r).Router.retries in
  let n, g6 = cycle_owned_by 0 ~from:200 in
  (match call c (Wire.Prove { scheme = "eulerian"; graph6 = g6 }) with
  | Wire.Proved _ -> ()
  | _ -> Alcotest.failf "prove C%d after ejection failed" n);
  check_int "ejected backend is routed around, not retried" before
    (Router.stats r).Router.retries

let router_probe_cycle () =
  with_cluster @@ fun r s1 s2 ->
  let state i = (List.nth (Router.stats r).Router.per_backend i).Router.state in
  (* a draining backend answers ready=false: the probe saturates it *)
  set_draining s2 true;
  Router.probe_once ~now_ns:(1_000 * ms) r;
  check "probe marks draining backend saturated" true (state 1 = Health.Saturated);
  check "saturated is still alive: router ready" true (router_ready r);
  set_draining s2 false;
  Router.probe_once ~now_ns:(1_001 * ms) r;
  check "undrained backend back to ready" true (state 1 = Health.Ready);
  (* a stopped backend fails fail_threshold probes and is ejected —
     plus one grace sweep: the probe connection already pooled when
     the backend stopped gets one last answer before the server
     notices it is stopping and closes it *)
  Server.stop s1;
  List.iter
    (fun t -> Router.probe_once ~now_ns:(t * ms) r)
    [ 1_002; 1_003; 1_004; 1_005 ];
  check "failed probes eject the stopped backend" true (state 0 = Health.Dead);
  check "one alive backend keeps the router ready" true (router_ready r);
  (* lose the last backend: readiness must flip *)
  Server.stop s2;
  List.iter
    (fun t -> Router.probe_once ~now_ns:(t * ms) r)
    [ 1_006; 1_007; 1_008; 1_009 ];
  check "no alive backend: router not ready" false (router_ready r)

let router_admin_endpoints () =
  with_cluster @@ fun r s1 s2 ->
  with_client (Router.port r) @@ fun c ->
  (* one compute request so the counters are nonzero *)
  let g6 = Graph6.encode (Builders.cycle 16) in
  (match call c (Wire.Prove { scheme = "eulerian"; graph6 = g6 }) with
  | Wire.Proved _ -> ()
  | _ -> Alcotest.fail "prove through router");
  (* Health is answered by the router itself *)
  (match call c Wire.Health with
  | Wire.Health_reply h ->
      check "router ready" true h.Wire.ready;
      check_int "router does not queue" 0 h.Wire.max_queue
  | _ -> Alcotest.fail "health through router");
  (* Stats aggregates the live backends *)
  (match call c Wire.Stats with
  | Wire.Stats_reply s -> check "aggregated requests > 0" true (s.Wire.requests > 0)
  | _ -> Alcotest.fail "stats through router");
  (* the retired forge and catalog tags are refused by the router
     itself, never forwarded, and the connection serves on *)
  Test_server.retired_tags_refused (Router.port r);
  check_int "retired tags never reach a backend" 0
    ((Server.stats s1).Server.bad_frames + (Server.stats s2).Server.bad_frames);
  (* Profile_export is answered by the router itself (its own
     attribution, not a backend's), valid even with the profiler off,
     and the GC families ride its exposition below *)
  (match call c Wire.Profile_export with
  | Wire.Profile_export_reply json ->
      check "router profile parses" true
        (Result.is_ok (Obs.Json.parse json))
  | _ -> Alcotest.fail "profile export through router");
  (* Drain is a backend-local admin operation: the router refuses it *)
  (match call c (Wire.Drain { enable = true }) with
  | Wire.Error_reply e ->
      check "drain refused with Bad_request" true (e.code = Wire.Bad_request)
  | _ -> Alcotest.fail "drain must not be forwarded");
  (* the router's own Prometheus exposition, with per-backend labels *)
  match call c Wire.Metrics_text with
  | Wire.Metrics_text_reply text ->
      List.iteri
        (fun i line ->
          if line <> "" && line.[0] <> '#' then
            match Obs.Export.parse_sample line with
            | Some _ -> ()
            | None -> Alcotest.failf "metrics line %d unparseable: %S" i line)
        (String.split_on_char '\n' text);
      let find name labels = Obs.Export.find_sample text ~name ~labels in
      (match find "lcp_router_requests_total" [] with
      | Some v -> check "router requests counted" true (v >= 1.0)
      | None -> Alcotest.fail "lcp_router_requests_total missing");
      (match find "lcp_router_alive_backends" [] with
      | Some v -> check "both backends alive" true (v = 2.0)
      | None -> Alcotest.fail "lcp_router_alive_backends missing");
      (match find "lcp_gc_minor_collections_total" [] with
      | Some v -> check "router gc telemetry" true (v >= 0.0)
      | None -> Alcotest.fail "lcp_gc_minor_collections_total missing");
      let b0 =
        List.nth (Router.stats r).Router.per_backend 0
      in
      (match find "lcp_router_backend_up" [ ("backend", b0.Router.name) ] with
      | Some v -> check "per-backend liveness gauge" true (v = 1.0)
      | None -> Alcotest.fail "per-backend up gauge missing")
  | _ -> Alcotest.fail "metrics_text through router"

let router_drain_reroutes () =
  with_cluster @@ fun r s1 s2 ->
  (* drain backend 0 directly (as an operator would before a deploy),
     let one probe see it, and route a request keyed to it: the work
     must land on backend 1 while backend 0 stays untouched *)
  set_draining s1 true;
  Router.probe_once ~now_ns:(2_000 * ms) r;
  let n, g6 = cycle_owned_by 0 ~from:300 in
  let before = (Server.stats s1).Server.cache_misses in
  with_client (Router.port r) (fun c ->
      match call c (Wire.Prove { scheme = "eulerian"; graph6 = g6 }) with
      | Wire.Proved _ -> ()
      | _ -> Alcotest.failf "prove C%d via drained cluster" n);
  check_int "drained backend got no new work" before
    (Server.stats s1).Server.cache_misses;
  check "the other backend compiled it" true
    ((Server.stats s2).Server.cache_misses >= 1);
  check_int "rerouting is not a retry" 0 (Router.stats r).Router.retries

(* the smallest cycle size >= from whose *batch op* key is owned by
   [idx] — op keys hash the graph bytes, not the whole frame, so a
   single-op batch's request_key is exactly the op's routing key *)
let cycle_op_owned_by idx ~from =
  let rec go n =
    let g6 = Graph6.encode (Builders.cycle n) in
    let key =
      Router.request_key
        (Wire.Batch
           {
             graphs = [ g6 ];
             proofs = [];
             ops = [ Wire.Op_prove { scheme = "eulerian"; graph = 0 } ];
           })
    in
    if List.hd (Ring.order two_ring key) = idx then (n, g6) else go (n + 1)
  in
  go from

let router_batch_split () =
  with_cluster @@ fun r s1 s2 ->
  (* two graphs keyed to different backends: the router must split the
     frame, fan the sub-batches out concurrently, and reassemble the
     per-op items in the original op order *)
  let _n0, g0 = cycle_op_owned_by 0 ~from:16 in
  let _n1, g1 = cycle_op_owned_by 1 ~from:16 in
  let ops =
    [
      Wire.Op_prove { scheme = "eulerian"; graph = 0 };
      Wire.Op_prove { scheme = "eulerian"; graph = 1 };
      Wire.Op_prove { scheme = "no-such-scheme"; graph = 0 };
      Wire.Op_prove { scheme = "eulerian"; graph = 0 };
      Wire.Op_prove { scheme = "eulerian"; graph = 1 };
    ]
  in
  with_client (Router.port r) (fun c ->
      match call c (Wire.Batch { graphs = [ g0; g1 ]; proofs = []; ops }) with
      | Wire.Batch_reply items ->
          check_int "one item per op" (List.length ops) (List.length items);
          List.iteri
            (fun i item ->
              match (i, item) with
              | (0 | 1 | 3 | 4), Wire.Item_proved (Some _) -> ()
              | 2, Wire.Item_error { code = Wire.Unknown_scheme; _ } -> ()
              | _, _ -> Alcotest.failf "item %d has the wrong shape" i)
            items
      | _ -> Alcotest.fail "batch through router");
  (* the split really spanned the cluster: each backend compiled
     exactly the graph keyed to it *)
  check_int "backend 0 compiled its graph" 1 (Server.stats s1).Server.cache_misses;
  check_int "backend 1 compiled its graph" 1 (Server.stats s2).Server.cache_misses;
  let st = Router.stats r in
  check_int "one client request, counted once" 1 st.Router.requests;
  check_int "no retries on a healthy cluster" 0 st.Router.retries;
  (* a single-key batch takes the fast path: forwarded as one frame to
     the owner, items still in order *)
  let before0 = (Server.stats s1).Server.batch_ops in
  with_client (Router.port r) (fun c ->
      match
        call c
          (Wire.Batch
             {
               graphs = [ g0 ];
               proofs = [];
               ops =
                 [
                   Wire.Op_prove { scheme = "eulerian"; graph = 0 };
                   Wire.Op_prove { scheme = "eulerian"; graph = 0 };
                 ];
             })
      with
      | Wire.Batch_reply [ Wire.Item_proved (Some _); Wire.Item_proved (Some _) ]
        -> ()
      | _ -> Alcotest.fail "single-key batch through router");
  check_int "single-key frame landed whole on its owner" (before0 + 2)
    (Server.stats s1).Server.batch_ops

let router_hedging () =
  (* hedge after 1 ms: a cold compile takes far longer, so the hedge
     leg fires; whichever leg wins, the client sees exactly one reply
     and the router counts exactly one request *)
  with_cluster ~router:(fun c -> { c with Router.hedge_ms = 1 }) @@ fun r _ _ ->
  with_client (Router.port r) @@ fun c ->
  let g6 = Graph6.encode (Builders.cycle 2048) in
  (match call c (Wire.Prove { scheme = "bipartite"; graph6 = g6 }) with
  | Wire.Proved (Some _) -> ()
  | _ -> Alcotest.fail "hedged prove");
  let st = Router.stats r in
  check_int "one client request, counted once" 1 st.Router.requests;
  check "the hedge leg fired" true (st.Router.hedges >= 1);
  check_int "no retries involved" 0 st.Router.retries;
  (* the reply is never double-counted: per-backend attempts may be 2,
     but request/win accounting stays at one *)
  check "at most one hedge win recorded" true (st.Router.hedge_wins <= 1)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let router_trace_propagation () =
  (* with 1-in-1 head sampling the router roots a trace for an
     untraced client frame and propagates the context to the backend;
     backends run in-process here so all lanes share one ring — the
     router's Trace_export must show its own spans AND the backend's
     server.request, all under the rid-derived trace id *)
  Obs.enable ~metrics:false ~trace:true ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.Trace.clear ())
  @@ fun () ->
  with_cluster ~router:(fun c -> { c with Router.trace_sample = 1 })
  @@ fun r _s1 _s2 ->
  with_client (Router.port r) @@ fun c ->
  let rid = 99991 in
  let g6 = Graph6.encode (Builders.cycle 16) in
  (match
     Client.call_id c ~id:rid (Wire.Prove { scheme = "eulerian"; graph6 = g6 })
   with
  | Ok (id, Wire.Proved _) -> check_int "echoed rid" rid id
  | Ok (_, _) -> Alcotest.fail "unexpected prove reply"
  | Error m -> Alcotest.failf "prove: %s" m);
  let hex =
    let ctx = Obs.Trace.ctx_of_rid rid in
    Obs.Trace.hex_id ctx.Obs.Trace.t_hi ctx.Obs.Trace.t_lo
  in
  match call c Wire.Trace_export with
  | Wire.Trace_export_reply json ->
      check "router.request span traced" true
        (contains ~sub:"\"name\":\"router.request\"" json);
      check "router.upstream span traced" true
        (contains ~sub:"\"name\":\"router.upstream\"" json);
      check "backend server.request span traced" true
        (contains ~sub:"\"name\":\"server.request\"" json);
      check "spans share the rid-derived trace id" true
        (contains ~sub:(Printf.sprintf "\"trace\":\"%s\"" hex) json)
  | _ -> Alcotest.fail "unexpected Trace_export reply"

let suite =
  ( "cluster",
    [
      Alcotest.test_case "ring distribution" `Quick ring_distribution;
      Alcotest.test_case "ring removal stability" `Quick ring_removal_stability;
      QCheck_alcotest.to_alcotest ring_order_prop;
      Alcotest.test_case "balancer bounded-load spill" `Quick balancer_spill;
      Alcotest.test_case "balancer never picks dead" `Quick balancer_never_dead;
      Alcotest.test_case "hedge first offer wins" `Quick hedge_first_wins;
      Alcotest.test_case "hedge rid mismatch loses" `Quick hedge_rid_mismatch;
      Alcotest.test_case "hedge all-failed and timeout" `Quick
        hedge_all_failed_and_timeout;
      Alcotest.test_case "hedge never double-counts" `Quick hedge_no_double_count;
      Alcotest.test_case "health eject/cooldown/reinstate" `Quick health_cycle;
      Alcotest.test_case "backoff deterministic jitter band" `Quick
        backoff_deterministic;
      Alcotest.test_case "connect retry schedule" `Quick connect_retry_schedule;
      Alcotest.test_case "router loadgen + cache affinity" `Quick
        router_loadgen_and_affinity;
      Alcotest.test_case "router failover on dead backend" `Quick router_failover;
      Alcotest.test_case "router probe eject cycle" `Quick router_probe_cycle;
      Alcotest.test_case "router admin endpoints" `Quick router_admin_endpoints;
      Alcotest.test_case "router routes around a draining backend" `Quick
        router_drain_reroutes;
      Alcotest.test_case "router splits a batch across backends" `Quick
        router_batch_split;
      Alcotest.test_case "router hedged request wins once" `Quick router_hedging;
      Alcotest.test_case "router roots and propagates traces" `Quick
        router_trace_propagation;
    ] )
