(* The cluster routing frontend: one TCP endpoint speaking the same
   wire protocol as the daemons, fanning out to N backends.

   Placement is {!Ring} + {!Balancer}: the key is exactly the backend's
   compiled-verifier cache key (scheme name + MD5 of the graph6
   payload), so identical instances keep landing on the same daemon
   and hit its LRU — the whole point of routing by content rather than
   round-robin. {!Health} is fed both actively (the probe loop sends
   {!Wire.Health} to every backend) and passively (a connect failure
   or transport error during forwarding counts too).

   A compute request gets a per-request budget: up to [1 + retries]
   attempts, each on a backend that has not failed this request yet
   (the avoid list), separated by deterministic jittered exponential
   backoff ({!Client.Backoff}, seeded by the correlation id). Only
   transport failures and typed [Overloaded] sheds are retried — any
   other reply, error or not, is the backend's answer and is relayed
   as-is. With [hedge_ms > 0] the first attempt races: if the primary
   backend has not replied within the delay, a second leg is issued to
   a different backend and the first reply wins ({!Hedge}); the loser
   is discarded by correlation id and only ever cost a duplicated
   idempotent verification.

   Connections to backends are pooled per backend (plain LIFO stacks;
   a connection that saw a transport error is closed, not returned).
   The router serves its port through the same {!Frame_server} as the
   daemon, with no compute of its own — its only state is routing
   state. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port}. *)
  backends : (string * int) list;
  retries : int;  (** extra forwarding attempts after the first *)
  hedge_ms : int;  (** <= 0 disables hedging *)
  probe_interval_ms : int;  (** <= 0 disables the probe thread *)
  http_port : int;  (** < 0 disables the sidecar; 0 picks a port. *)
  log : Obs.Log.t option;
  trace_sample : int;
      (** Head-based trace sampling for requests arriving without a
          wire trace context; <= 0 disables. A context already on the
          frame is always honoured — the head of the chain decided. *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7412;
    backends = [];
    retries = 2;
    hedge_ms = 0;
    probe_interval_ms = 200;
    http_port = -1;
    log = None;
    trace_sample = 0;
  }

(* cap on waiting for an in-flight leg once we are committed to it *)
let leg_wait_cap_ms = 60_000

(* Delays between forwarding attempts: 5 ms base, x2 growth, 200 ms
   cap, 50% jitter. Placement and ejection run on the defaults of
   {!Ring} (64 vnodes per backend), {!Balancer} (load factor 1.25) and
   {!Health} (eject after 3 consecutive failures, 1 s cooldown). *)
let backoff = { Client.Backoff.default with base_ms = 5.0; max_ms = 200.0 }

(* The router's own counter slots in the rolling window. *)
let w_retries = Frame_server.w_first_extra
let w_hedges = Frame_server.w_first_extra + 1

type backend = {
  b_host : string;
  b_port : int;
  b_name : string;  (* "host:port", the Prometheus label *)
  b_mu : Mutex.t;
  mutable b_idle : Client.t list;
  b_requests : int Atomic.t;  (* forwarding attempts *)
  b_errors : int Atomic.t;  (* attempts that failed (transport / shed) *)
  b_retries : int Atomic.t;  (* retries this backend's failures caused *)
  b_hedges : int Atomic.t;  (* hedge legs issued to this backend *)
}

type t = {
  config : config;
  fs : Frame_server.t;
  backends : backend array;
  ring : Ring.t;
  health : Health.t;
  balancer : Balancer.t;
  c_retries : int Atomic.t;
  c_hedges : int Atomic.t;
  c_hedge_wins : int Atomic.t;
  c_no_backend : int Atomic.t;
  c_shards : int Atomic.t;  (* Verify_partition frames forwarded *)
}

let create (config : config) =
  let n = List.length config.backends in
  if n < 1 then invalid_arg "Router.create: need at least one backend";
  if config.retries < 0 then invalid_arg "Router.create: retries < 0";
  let fs =
    Frame_server.create ~name:"router" ~host:config.host ~port:config.port
      ~http_port:config.http_port ~trace_sample:config.trace_sample
      ~log:config.log ()
  in
  let ring = Ring.create n in
  let health = Health.create n in
  {
    config;
    fs;
    backends =
      Array.of_list
        (List.map
           (fun (b_host, b_port) ->
             {
               b_host;
               b_port;
               b_name = Printf.sprintf "%s:%d" b_host b_port;
               b_mu = Mutex.create ();
               b_idle = [];
               b_requests = Atomic.make 0;
               b_errors = Atomic.make 0;
               b_retries = Atomic.make 0;
               b_hedges = Atomic.make 0;
             })
           config.backends);
    ring;
    health;
    balancer = Balancer.create ring health;
    c_retries = Atomic.make 0;
    c_hedges = Atomic.make 0;
    c_hedge_wins = Atomic.make 0;
    c_no_backend = Atomic.make 0;
    c_shards = Atomic.make 0;
  }

let port t = Frame_server.port t.fs
let http_port t = Frame_server.http_port t.fs
let err = Frame_server.err

let request_key = Wire.request_key

(* --- backend connections ---------------------------------------------- *)

let max_idle_per_backend = 16

let borrow t bi =
  let b = t.backends.(bi) in
  Mutex.lock b.b_mu;
  let pooled =
    match b.b_idle with
    | [] -> None
    | c :: rest ->
        b.b_idle <- rest;
        Some c
  in
  Mutex.unlock b.b_mu;
  match pooled with
  | Some c -> Ok c
  | None -> Client.connect ~host:b.b_host ~port:b.b_port ()

let give_back t bi c =
  let b = t.backends.(bi) in
  if Frame_server.stopping t.fs then Client.close c
  else begin
    Mutex.lock b.b_mu;
    let keep = List.length b.b_idle < max_idle_per_backend in
    if keep then b.b_idle <- c :: b.b_idle;
    Mutex.unlock b.b_mu;
    if not keep then Client.close c
  end

let drop_idle t =
  Array.iter
    (fun b ->
      Mutex.lock b.b_mu;
      let idle = b.b_idle in
      b.b_idle <- [];
      Mutex.unlock b.b_mu;
      List.iter Client.close idle)
    t.backends

(* Borrow a connection, run [f], return it on success and close it on
   transport failure — a connection that saw an error is out of
   sync. *)
let with_conn t bi f =
  match borrow t bi with
  | Error m -> Error m
  | Ok c -> (
      match f c with
      | Ok _ as r ->
          give_back t bi c;
          r
      | Error _ as r ->
          Client.close c;
          r)

(* One admin round trip to backend [bi]; [pick] recognises the
   expected reply. *)
let ask t bi req pick =
  with_conn t bi (fun c ->
      match Client.call c req with
      | Ok resp -> Option.to_result ~none:"unexpected response" (pick resp)
      | Error _ as e -> e)

(* --- health probing ---------------------------------------------------- *)

let probe_once ?now_ns t =
  Array.iteri
    (fun i _ ->
      match
        ask t i Wire.Health (function Wire.Health_reply h -> Some h | _ -> None)
      with
      | Ok h -> Health.observe_ok ?now_ns t.health i ~ready:h.Wire.ready
      | Error _ -> Health.observe_failure ?now_ns t.health i)
    t.backends

let probe_loop t =
  let interval_s = float_of_int t.config.probe_interval_ms /. 1000.0 in
  while not (Frame_server.stopping t.fs) do
    probe_once t;
    if not (Frame_server.stopping t.fs) then Thread.delay interval_s
  done

(* --- forwarding -------------------------------------------------------- *)

type leg_failure = [ `Overloaded of Wire.response | `Transport of string ]

(* One attempt on one backend. Feeds passive health; classifies the
   two retryable outcomes. Everything else — including backend error
   replies like Unknown_scheme — is the request's answer. *)
let attempt_on t ~rid ~tctx req bi : (Wire.response, leg_failure) result =
  let b = t.backends.(bi) in
  Atomic.incr b.b_requests;
  let transport_failure m =
    Atomic.incr b.b_errors;
    Health.observe_failure t.health bi;
    Error (`Transport m)
  in
  match borrow t bi with
  | Error m -> transport_failure m
  | Ok c -> (
      (* the upstream span brackets exactly the request/response round
         trip on the router's clock, and the backend parents its own
         server.request span under it — that pairing is what the trace
         merger's clock-offset estimate keys on *)
      let uctx = Frame_server.child_span tctx in
      match
        Obs.Trace.span_ctx "router.upstream" "backend" bi uctx (fun () ->
            Client.call_id ?trace:(Client.wire_trace uctx) c ~id:rid req)
      with
      | Ok (rid', resp) -> (
          match resp with
          | Wire.Error_reply
              { code = (Wire.Overloaded | Wire.Unavailable) as code; _ } ->
              give_back t bi c;
              Atomic.incr b.b_errors;
              (* both typed declines are worth a retry elsewhere:
                 Overloaded means up-but-shedding (saturated, not
                 dead); Unavailable means the pool is shutting down,
                 so push the backend toward ejection *)
              if code = Wire.Overloaded then
                Health.observe_ok t.health bi ~ready:false
              else Health.observe_failure t.health bi;
              Error (`Overloaded resp)
          | _ when rid' <> rid ->
              (* echoed id mismatch: the connection slipped a frame *)
              Client.close c;
              transport_failure
                (Printf.sprintf "backend %s echoed id %d for request %d"
                   b.b_name rid' rid)
          | _ ->
              give_back t bi c;
              Ok resp)
      | Error m ->
          Client.close c;
          transport_failure m)

(* A leg of a (possibly hedged) attempt: run it, release the balancer
   slot, then race into the cell. A reply that loses the race is
   simply dropped — [Hedge.offer] returning false is the single point
   that guarantees no double-counting. *)
let spawn_leg t ~rid ~tctx req bi ~origin cell last_failure =
  ignore
    (Thread.create
       (fun () ->
         let r = attempt_on t ~rid ~tctx req bi in
         Balancer.release t.balancer bi;
         match r with
         | Ok resp -> ignore (Hedge.offer cell ~rid (origin, resp))
         | Error e ->
             Atomic.set last_failure (Some e);
             Hedge.fail cell)
       ())

(* First attempt with hedging: race a second backend if the primary
   is silent for [hedge_ms]. Returns the used backends for the avoid
   list of a subsequent retry. *)
let hedged_attempt t ~key ~rid ~tctx req bi ~avoid =
  let cell = Hedge.create ~rid ~legs:1 in
  let last_failure = Atomic.make None in
  spawn_leg t ~rid ~tctx req bi ~origin:`Primary cell last_failure;
  let finish used outcome =
    Hedge.dispose cell;
    match outcome with
    | Hedge.Winner (origin, resp) ->
        if origin = `Hedge then Atomic.incr t.c_hedge_wins;
        (used, Ok resp)
    | Hedge.All_failed | Hedge.Timeout -> (used, Error (Atomic.get last_failure))
  in
  match Hedge.await cell ~timeout_ms:t.config.hedge_ms with
  | (Hedge.Winner _ | Hedge.All_failed) as o -> finish [ bi ] o
  | Hedge.Timeout -> (
      match Balancer.acquire t.balancer ~key ~avoid:(bi :: avoid) with
      | None ->
          (* nowhere to hedge: commit to the primary *)
          finish [ bi ] (Hedge.await cell ~timeout_ms:leg_wait_cap_ms)
      | Some b2 ->
          Atomic.incr t.c_hedges;
          Atomic.incr t.backends.(b2).b_hedges;
          Obs.Window.incr (Frame_server.window t.fs) w_hedges;
          Obs.Trace.instant ~arg_name:"backend" ~arg:b2
            ~ctx:(Frame_server.child_span tctx) "router.hedge";
          Hedge.add_leg cell;
          spawn_leg t ~rid ~tctx req b2 ~origin:`Hedge cell last_failure;
          finish [ bi; b2 ] (Hedge.await cell ~timeout_ms:leg_wait_cap_ms))

let plain_attempt t ~rid ~tctx req bi =
  let r = attempt_on t ~rid ~tctx req bi in
  Balancer.release t.balancer bi;
  match r with
  | Ok resp -> ([ bi ], Ok resp)
  | Error e -> ([ bi ], Error (Some e))

let exhausted ~attempts last =
  match last with
  | Some (`Overloaded resp) -> resp (* relay the typed shed *)
  | Some (`Transport m) ->
      err Wire.Internal "forwarding failed after %d attempt(s): %s" attempts m
  | None -> err Wire.Internal "forwarding failed after %d attempt(s)" attempts

(* Sibling shards of one partitioned verification must land on
   distinct backends — spreading the legs is the whole point of the
   split. Content-addressed placement would stack the two shards of a
   k=2 partition on one daemon about half the time, so a
   Verify_partition picks by rotating its shard_index over the
   non-dead backends; the ring key (cache affinity) only decides when
   that pick is unusable. *)
let shard_target t ~shard_index ~avoid =
  let usable = ref [] in
  for i = Array.length t.backends - 1 downto 0 do
    if Health.state t.health i <> Health.Dead && not (List.mem i avoid) then
      usable := i :: !usable
  done;
  match !usable with
  | [] -> None
  | l -> Some (List.nth l (shard_index mod List.length l))

(* Acquire one specific backend through the balancer so in-flight
   accounting stays single-sourced; None if it died in between. *)
let acquire_exact t bi =
  let avoid =
    List.filter (( <> ) bi) (List.init (Array.length t.backends) Fun.id)
  in
  Balancer.acquire t.balancer ~key:"" ~avoid

let forward_compute t ~rid ~tctx req =
  let key = request_key req in
  let spread_index =
    match req with
    | Wire.Verify_partition { shard_index; _ } -> Some shard_index
    | _ -> None
  in
  let max_attempts = 1 + t.config.retries in
  let rec go attempt avoid last =
    let acquired =
      let spread =
        match spread_index with
        | None -> None
        | Some si -> (
            match shard_target t ~shard_index:si ~avoid with
            | None -> None
            | Some bi -> acquire_exact t bi)
      in
      match spread with
      | Some _ as p -> p
      | None -> (
          match Balancer.acquire t.balancer ~key ~avoid with
          | None when avoid <> [] ->
              (* everything usable already failed this request; a retry
                 may still land if a backend recovered, so widen *)
              Balancer.acquire t.balancer ~key ~avoid:[]
          | r -> r)
    in
    match acquired with
    | None ->
        Atomic.incr t.c_no_backend;
        err Wire.Overloaded "no backend available (%d configured, %d alive)"
          (Array.length t.backends) (Health.alive t.health)
    | Some bi -> (
        let used, outcome =
          if t.config.hedge_ms > 0 && attempt = 1 then
            hedged_attempt t ~key ~rid ~tctx req bi ~avoid
          else plain_attempt t ~rid ~tctx req bi
        in
        match outcome with
        | Ok resp -> resp
        | Error last' ->
            let last = if last' <> None then last' else last in
            if attempt >= max_attempts then exhausted ~attempts:attempt last
            else begin
              Atomic.incr t.c_retries;
              Obs.Window.incr (Frame_server.window t.fs) w_retries;
              Obs.Trace.instant ~arg_name:"attempt" ~arg:attempt
                ~ctx:(Frame_server.child_span tctx) "router.retry";
              List.iter
                (fun b -> Atomic.incr t.backends.(b).b_retries)
                used;
              let delay =
                Client.Backoff.delay_ms backoff ~seed:rid ~attempt
              in
              if delay > 0.0 then Thread.delay (delay /. 1000.0);
              go (attempt + 1) (used @ avoid) last
            end)
  in
  go 1 [] None

(* --- batch fan-out ------------------------------------------------------ *)

let remap_op ~newgraph ~newproof = function
  | Wire.Op_prove { scheme; graph } ->
      Wire.Op_prove { scheme; graph = newgraph graph }
  | Wire.Op_verify { scheme; graph; proof } ->
      Wire.Op_verify { scheme; graph = newgraph graph; proof = newproof proof }

(* A batch whose ops route to different backends is split by routing
   key: one sub-batch per key, each with minimal remapped graph and
   proof tables, forwarded concurrently (each leg gets its own rid and
   the full retry/hedge budget of [forward_compute]). Per-op replies
   are scattered back into the original op order, and a leg that fails
   outright fills its ops' slots with that error — one cold or dead
   backend degrades its share of the frame, never the whole frame.
   The common case — every op sharing one key — forwards the frame
   unchanged. *)
let forward_batch t ~rid ~tctx ~graphs ~proofs ~ops =
  match ops with
  | [] -> Wire.Batch_reply []
  | _ -> (
      let gt = Array.of_list graphs in
      let pt = Array.of_list proofs in
      (* group ops by key, preserving both first-seen key order and
         arrival order within a group *)
      let order = ref [] in
      let groups = Hashtbl.create 8 in
      List.iteri
        (fun i op ->
          let key = Wire.op_key gt op in
          match Hashtbl.find_opt groups key with
          | Some members -> members := (i, op) :: !members
          | None ->
              Hashtbl.add groups key (ref [ (i, op) ]);
              order := key :: !order)
        ops;
      match List.rev !order with
      | [] | [ _ ] ->
          forward_compute t ~rid ~tctx (Wire.Batch { graphs; proofs; ops })
      | keys ->
          Obs.Trace.instant ~arg_name:"legs" ~arg:(List.length keys)
            ~ctx:(Frame_server.child_span tctx) "router.split";
          let slots =
            Array.make (List.length ops)
              (Wire.Item_error
                 { code = Wire.Internal; message = "batch op never routed" })
          in
          let run_group key =
            let members = List.rev !(Hashtbl.find groups key) in
            (* a dense sub-batch table: [intern i] is original entry
               [i]'s index in the sub-batch, in first-use order *)
            let table entry =
              let remap = Hashtbl.create 4 and entries = ref [] in
              let intern i =
                match Hashtbl.find_opt remap i with
                | Some j -> j
                | None ->
                    let j = Hashtbl.length remap in
                    Hashtbl.add remap i j;
                    entries := entry i :: !entries;
                    j
              in
              (intern, entries)
            in
            let newgraph, sub_graphs =
              table (fun gi -> if gi < Array.length gt then gt.(gi) else "")
            in
            let newproof, sub_proofs =
              table (fun pi ->
                  if pi < Array.length pt then pt.(pi) else Proof.empty)
            in
            let sub_ops =
              List.map (fun (_, op) -> remap_op ~newgraph ~newproof op) members
            in
            let req =
              Wire.Batch
                {
                  graphs = List.rev !sub_graphs;
                  proofs = List.rev !sub_proofs;
                  ops = sub_ops;
                }
            in
            let fill item_at =
              List.iteri (fun j (i, _) -> slots.(i) <- item_at j) members
            in
            let leg_rid = Frame_server.fresh_rid t.fs in
            match forward_compute t ~rid:leg_rid ~tctx req with
            | Wire.Batch_reply items when List.length items = List.length members
              ->
                let items = Array.of_list items in
                fill (fun j -> items.(j))
            | Wire.Error_reply { code; message } ->
                fill (fun _ -> Wire.Item_error { code; message })
            | _ ->
                fill (fun _ ->
                    Wire.Item_error
                      {
                        code = Wire.Internal;
                        message = "backend answered a batch with a non-batch \
                                   response";
                      })
          in
          let legs = List.map (fun key -> Thread.create run_group key) keys in
          List.iter Thread.join legs;
          Wire.Batch_reply (Array.to_list slots))

(* --- non-compute requests --------------------------------------------- *)

(* Readiness: [ready] iff not stopping and at least one backend is not
   ejected; [pending] is the in-flight forward count ([max_queue] is 0:
   the router does not queue). *)
let health t =
  {
    Wire.ready =
      (not (Frame_server.stopping t.fs)) && Health.alive t.health > 0;
    pending = Balancer.total_inflight t.balancer;
    max_queue = 0;
    uptime_ms = Frame_server.uptime_ms t.fs;
  }

(* Cluster-wide stats: every live backend's counters summed, so `lcp
   top` and loadgen pointed at the router see the whole fleet. *)
let stats_reply t =
  let acc = ref None in
  Array.iteri
    (fun i _ ->
      if Health.state t.health i <> Health.Dead then
        match
          ask t i Wire.Stats (function Wire.Stats_reply s -> Some s | _ -> None)
        with
        | Error _ -> ()
        | Ok s ->
            acc :=
              Some
                (match !acc with
                | None -> s
                | Some a ->
                    {
                      Wire.requests = a.Wire.requests + s.Wire.requests;
                      cache_hits = a.Wire.cache_hits + s.Wire.cache_hits;
                      cache_misses = a.Wire.cache_misses + s.Wire.cache_misses;
                      cache_entries = a.Wire.cache_entries + s.Wire.cache_entries;
                      overloaded = a.Wire.overloaded + s.Wire.overloaded;
                      deadline_exceeded =
                        a.Wire.deadline_exceeded + s.Wire.deadline_exceeded;
                      uptime_ms = max a.Wire.uptime_ms s.Wire.uptime_ms;
                      metrics_json = "{}";
                    }))
    t.backends;
  match !acc with
  | Some s ->
      Wire.Stats_reply { s with Wire.uptime_ms = Frame_server.uptime_ms t.fs }
  | None -> err Wire.Internal "no backend answered stats"

(* --- exposition -------------------------------------------------------- *)

let metrics_text t =
  let e = Obs.Export.create () in
  Frame_server.export t.fs e;
  Obs.Export.counter e ~help:"Forwarding retries" "router.retries"
    (Atomic.get t.c_retries);
  Obs.Export.counter e ~help:"Hedge legs issued" "router.hedges"
    (Atomic.get t.c_hedges);
  Obs.Export.counter e ~help:"Requests won by the hedge leg"
    "router.hedge_wins"
    (Atomic.get t.c_hedge_wins);
  Obs.Export.counter e ~help:"Requests with no usable backend"
    "router.no_backend"
    (Atomic.get t.c_no_backend);
  Obs.Export.counter e ~help:"Partition shards forwarded"
    "router.partition_shards"
    (Atomic.get t.c_shards);
  Obs.Export.gauge e ~help:"Configured backends" "router.backends"
    (float_of_int (Array.length t.backends));
  Obs.Export.gauge e ~help:"Backends not ejected" "router.alive_backends"
    (float_of_int (Health.alive t.health));
  Obs.Export.gauge e ~help:"Requests in flight to backends"
    "router.inflight"
    (float_of_int (Balancer.total_inflight t.balancer));
  Obs.Export.gauge e ~help:"1 when at least one backend is usable"
    "router.ready"
    (if (health t).Wire.ready then 1.0 else 0.0);
  Array.iteri
    (fun i b ->
      let labels = [ ("backend", b.b_name) ] in
      Obs.Export.counter e ~labels ~help:"Forwarding attempts per backend"
        "router.backend_requests"
        (Atomic.get b.b_requests);
      Obs.Export.counter e ~labels ~help:"Failed attempts per backend"
        "router.backend_errors" (Atomic.get b.b_errors);
      Obs.Export.counter e ~labels ~help:"Retries caused per backend"
        "router.backend_retries"
        (Atomic.get b.b_retries);
      Obs.Export.counter e ~labels ~help:"Hedge legs issued per backend"
        "router.backend_hedges" (Atomic.get b.b_hedges);
      Obs.Export.gauge e ~labels ~help:"In-flight requests per backend"
        "router.backend_inflight"
        (float_of_int (Balancer.inflight t.balancer i));
      let st = Health.state t.health i in
      Obs.Export.gauge e ~labels ~help:"1 unless the backend is ejected"
        "router.backend_up"
        (if st <> Health.Dead then 1.0 else 0.0);
      Obs.Export.gauge e ~labels
        ~help:"Backend state: 0 ready, 1 saturated, 2 dead"
        "router.backend_state"
        (match st with
        | Health.Ready -> 0.0
        | Health.Saturated -> 1.0
        | Health.Dead -> 2.0))
    t.backends;
  (* the router's own GC/profiler telemetry: its hot path is header
     shuffling and connection pooling, which is exactly where an
     allocation regression would hide *)
  Obs.Profile.exposition e;
  Obs.Export.contents e

(* --- stats ------------------------------------------------------------- *)

type backend_stats = {
  name : string;
  state : Health.state;
  requests : int;
  errors : int;
  retries : int;
  hedges : int;
  inflight : int;
}

type stats = {
  requests : int;
  retries : int;
  hedges : int;
  hedge_wins : int;
  no_backend : int;
  bad_frames : int;
  connections : int;
  per_backend : backend_stats list;
}

let stats t =
  {
    requests = Frame_server.requests t.fs;
    retries = Atomic.get t.c_retries;
    hedges = Atomic.get t.c_hedges;
    hedge_wins = Atomic.get t.c_hedge_wins;
    no_backend = Atomic.get t.c_no_backend;
    bad_frames = Frame_server.bad_frames t.fs;
    connections = Frame_server.connections t.fs;
    per_backend =
      Array.to_list
        (Array.mapi
           (fun i b ->
             {
               name = b.b_name;
               state = Health.state t.health i;
               requests = Atomic.get b.b_requests;
               errors = Atomic.get b.b_errors;
               retries = Atomic.get b.b_retries;
               hedges = Atomic.get b.b_hedges;
               inflight = Balancer.inflight t.balancer i;
             })
           t.backends);
  }

(* --- request dispatch -------------------------------------------------- *)

let handle_request t (ctx : unit Frame_server.ctx) req =
  let rid = ctx.rid and tctx = ctx.trace in
  match req with
  | Wire.Health -> Wire.Health_reply (health t)
  | Wire.Stats -> stats_reply t
  | Wire.Drain _ ->
      err Wire.Bad_request
        "drain is a backend-local operation: send it to a daemon, not the \
         router"
  | Wire.Batch { graphs; proofs; ops } ->
      forward_batch t ~rid ~tctx ~graphs ~proofs ~ops
  | Wire.Verify_partition { shard_index; _ } ->
      Atomic.incr t.c_shards;
      Obs.Trace.instant ~arg_name:"shard" ~arg:shard_index
        ~ctx:(Frame_server.child_span tctx) "router.shard";
      forward_compute t ~rid ~tctx req
  | _ ->
      (* prove, verify, sampled verify; the frame server answers the
         telemetry frames itself *)
      forward_compute t ~rid ~tctx req

(* --- HTTP sidecar ------------------------------------------------------ *)

let http_reply t = function
  | "/readyz" ->
      let alive = Health.alive t.health in
      let ready = alive > 0 && not (Frame_server.stopping t.fs) in
      Some
        (Frame_server.http_text ~ready
           (if ready then
              Printf.sprintf "ready: %d/%d backends alive\n" alive
                (Array.length t.backends)
            else "no usable backend\n"))
  | _ -> None

(* --- lifecycle --------------------------------------------------------- *)

let stop t = Frame_server.stop t.fs

let run t =
  let probe_thread =
    if t.config.probe_interval_ms > 0 then
      Some (Thread.create probe_loop t)
    else None
  in
  Frame_server.run t.fs
    {
      Frame_server.fresh = (fun _ _ -> ());
      handle = handle_request t;
      log_fields = (fun _ _ -> []);
      (* every traced line names its trace *)
      finish = (fun _ _ _ ~latency_ns:_ -> true);
      metrics_text = (fun () -> metrics_text t);
      http = http_reply t;
    };
  Option.iter Thread.join probe_thread;
  drop_idle t

let start t = Thread.create run t
