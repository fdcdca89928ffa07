(* The closed loop: a cluster of real processes, one client thread per
   connection sending its next frame only after the reply to the last
   one arrived, and the after-the-fact correctness check. *)

let now = Obs.Clock.now_ns

type cluster = {
  daemons : Procs.proc list;
  router : Procs.proc option;
  target : int;  (** first-hop port: the router, else the daemon *)
}

let procs c = c.daemons @ Option.to_list c.router

let start ~lcp ~dir ~tag ~logs (w : Workload.t) =
  let log name = if logs then Some (Filename.concat dir (name ^ ".log")) else None in
  let daemons =
    List.init (if w.Workload.routed then 2 else 1) (fun i ->
        let name = Printf.sprintf "%s-daemon%d" tag i in
        Procs.serve ~lcp ~dir ~name ?log:(log name) ())
  in
  List.iter Procs.wait_ready daemons;
  let router =
    if w.Workload.routed then begin
      let name = tag ^ "-router" in
      let r = Procs.route ~lcp ~dir ~name ?log:(log name) daemons in
      Procs.wait_ready r;
      Some r
    end
    else None
  in
  let target =
    match router with Some r -> r.Procs.port | None -> (List.hd daemons).Procs.port
  in
  { daemons; router; target }

let stop c = List.iter Procs.stop (procs c)

let fanout c (i : Workload.inst) proof =
  Fanout.verify ~port:c.target ~scheme:i.Workload.scheme
    ~csr:(Simulator.compiled_csr i.Workload.compiled)
    ~proof ~radius:i.Workload.sch.Scheme.radius ~k:Workload.partition_k ()

(* Every instance once with its valid proof through the first hop and,
   routed, directly on every daemon too (the router's bounded-load
   spill may send any key to either backend) plus once partitioned —
   so the timed window starts on caches that hold the working set. *)
let warm (w : Workload.t) c =
  let verify_all port =
    let conn =
      match Client.connect ~port () with
      | Ok conn -> conn
      | Error m -> failwith ("warm pass: " ^ m)
    in
    Array.iter
      (fun (i : Workload.inst) ->
        let req =
          Wire.Verify { scheme = i.Workload.scheme; graph6 = i.Workload.graph6; proof = i.Workload.proof }
        in
        match Client.call_id conn ~id:(Workload.warm_rid i.Workload.idx) req with
        | Ok (_, Wire.Verified { accepted = true; _ }) -> ()
        | _ -> failwith "warm pass: a valid proof was not accepted")
      w.Workload.instances;
    Client.close conn
  in
  verify_all c.target;
  if w.Workload.routed then begin
    List.iter (fun d -> verify_all d.Procs.port) c.daemons;
    Array.iter
      (fun (i : Workload.inst) ->
        match fanout c i i.Workload.proof with
        | Ok v when v.Fanout.all_accept -> ()
        | _ -> failwith "warm pass: a partitioned verify failed")
      w.Workload.instances
  end

(* --- samples ----------------------------------------------------------- *)

type reply = Resp of Wire.response | Fan of Fanout.verdict | Failed of string

type sample = { rid : int; op : Workload.op; t0 : int; t1 : int; reply : reply }

type conn = {
  stream : Workload.stream;
  mutable client : Client.t option;
  mutable samples : sample list;  (** newest first *)
}

let conns w n = Array.init n (fun c -> { stream = Workload.stream w ~conn:c; client = None; samples = [] })

let close_conns cs =
  Array.iter (fun cs -> Option.iter Client.close cs.client; cs.client <- None) cs

let span_name = function
  | Workload.Verify _ -> "client.verify"
  | Workload.Prove _ -> "client.prove"
  | Workload.Sampled _ -> "client.sampled"
  | Workload.Batch _ -> "client.batch"
  | Workload.Partition _ -> "client.partition"

let call_on cs port ~rid req =
  let client =
    match cs.client with Some c -> Ok c | None -> Client.connect ~port ()
  in
  match client with
  | Error m -> Failed m
  | Ok c -> (
      cs.client <- Some c;
      match Client.call_id c ~id:rid req with
      | Ok (rid', resp) when rid' = rid -> Resp resp
      | Ok _ -> Failed "echoed correlation id differs"
      | Error m ->
          (* a transport error leaves the connection out of sync *)
          Client.close c;
          cs.client <- None;
          Failed m)

let one_op (w : Workload.t) c cs ~traced =
  let rid, op = Workload.next cs.stream in
  let call =
    match op with
    | Workload.Partition { inst; tampered } ->
        let i = w.Workload.instances.(inst) in
        let proof = Workload.proof_of i tampered in
        fun () ->
          (match fanout c i proof with Ok v -> Fan v | Error m -> Failed m)
    | _ -> (
        match Workload.request w ~rid op with
        | Some req -> fun () -> call_on cs c.target ~rid req
        | None -> fun () -> Failed "no request for op")
  in
  let t0 = now () in
  let reply =
    if traced then
      Obs.Trace.span_ctx (span_name op) "rid" rid (Obs.Trace.ctx_of_rid rid) call
    else call ()
  in
  let t1 = now () in
  cs.samples <- { rid; op; t0; t1; reply } :: cs.samples

(* What one stretch of load cost, read around it. *)
type cost = {
  wall_ns : int;
  daemon_cpu_us : float;
  router_cpu_us : float;
  client_cpu_s : float;
  alloc_bytes : float;
  steal_ticks : float;
  host_ticks : float;
}

let zero_cost =
  {
    wall_ns = 0; daemon_cpu_us = 0.; router_cpu_us = 0.; client_cpu_s = 0.; alloc_bytes = 0.;
    steal_ticks = 0.; host_ticks = 0.;
  }

let add_cost a b =
  {
    wall_ns = a.wall_ns + b.wall_ns;
    daemon_cpu_us = a.daemon_cpu_us +. b.daemon_cpu_us;
    router_cpu_us = a.router_cpu_us +. b.router_cpu_us;
    client_cpu_s = a.client_cpu_s +. b.client_cpu_s;
    alloc_bytes = a.alloc_bytes +. b.alloc_bytes;
    steal_ticks = a.steal_ticks +. b.steal_ticks;
    host_ticks = a.host_ticks +. b.host_ticks;
  }

let steal_share c = if c.host_ticks > 0.0 then c.steal_ticks /. c.host_ticks else 0.0

let client_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_of ps = Stats.sum (List.map (fun p -> Procs.cpu_us p.Procs.pid) ps)

(* Run the closed loop on [c] for [seconds], one thread per
   connection. *)
let phase w c cs ~traced ~seconds =
  let d0 = cpu_of c.daemons and r0 = cpu_of (Option.to_list c.router) in
  let u0 = client_cpu () and a0 = Gc.allocated_bytes () in
  let s0, h0 = Procs.host_ticks () in
  let start = now () in
  let until = start + int_of_float (seconds *. 1e9) in
  let threads =
    Array.map
      (fun conn ->
        Thread.create
          (fun () -> while now () < until do one_op w c conn ~traced done)
          ())
      cs
  in
  Array.iter Thread.join threads;
  let wall_ns = now () - start in
  let s1, h1 = Procs.host_ticks () in
  {
    wall_ns;
    steal_ticks = s1 -. s0;
    host_ticks = h1 -. h0;
    daemon_cpu_us = cpu_of c.daemons -. d0;
    router_cpu_us = cpu_of (Option.to_list c.router) -. r0;
    client_cpu_s = client_cpu () -. u0;
    alloc_bytes = Gc.allocated_bytes () -. a0;
  }

let samples cs =
  List.sort (fun a b -> compare a.t0 b.t0)
    (List.concat_map (fun conn -> conn.samples) (Array.to_list cs))

let ops samples = List.fold_left (fun n s -> n + Workload.ops_of s.op) 0 samples

(* --- correctness -------------------------------------------------------- *)

(* Failed ops in one sample: a transport error, a typed error reply or
   a verdict that differs from the oracle's. A batch fails op by op. *)
let failures (w : Workload.t) proved s =
  let bad b = if b then 0 else Workload.ops_of s.op in
  match (s.op, s.reply) with
  | _, Failed _ -> Workload.ops_of s.op
  | Workload.Verify { inst; tampered }, Resp (Wire.Verified { accepted; rejecting }) ->
      bad (Workload.check_verified w inst tampered ~accepted ~rejecting)
  | Workload.Prove { inst }, Resp (Wire.Proved (Some p) as r) ->
      (* the prover is deterministic: verify each distinct proof once *)
      let seen = Option.value ~default:[] (Hashtbl.find_opt proved inst) in
      if List.exists (Proof.equal p) seen then 0
      else if Workload.check_proved w inst r then begin
        Hashtbl.replace proved inst (p :: seen);
        0
      end
      else 1
  | Workload.Sampled { inst; tampered }, Resp r ->
      bad (Workload.check_sampled w inst ~rid:s.rid ~tampered r)
  | Workload.Batch { items }, Resp (Wire.Batch_reply l) when List.length l = Array.length items ->
      List.fold_left ( + ) 0
        (List.mapi
           (fun j item ->
             let inst, tampered = items.(j) in
             match item with
             | Wire.Item_verified { accepted; rejecting } ->
                 if Workload.check_verified w inst tampered ~accepted ~rejecting then 0 else 1
             | _ -> 1)
           l)
  | Workload.Partition { inst; tampered }, Fan v ->
      bad (Workload.check_partition w inst tampered v)
  | _ -> Workload.ops_of s.op

let check w samples =
  let proved = Hashtbl.create 64 in
  List.fold_left (fun n s -> n + failures w proved s) 0 samples
