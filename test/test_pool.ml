(* Pool edge cases the equivalence suite does not exercise: more
   workers than work, exception propagation without losing in-flight
   tasks, the submit-after-shutdown contract, and — the property the
   metrics layer is designed around — snapshots that are identical no
   matter how many workers recorded them. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let more_workers_than_work () =
  let p = Pool.create 8 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  check_int "size" 8 (Pool.size p);
  let hits = Array.make 3 0 in
  Pool.parallel_for p ~chunks:8 ~n:3 (fun _c lo hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  check "3 items over 8 workers: each exactly once" true
    (Array.for_all (( = ) 1) hits);
  (* empty range: no task may run, wait must return *)
  let ran = Atomic.make false in
  Pool.parallel_for p ~chunks:8 ~n:0 (fun _ _ _ -> Atomic.set ran true);
  check "n=0 runs nothing" false (Atomic.get ran);
  (* single worker pool still drains a deep queue *)
  let q = Pool.create 1 in
  Fun.protect ~finally:(fun () -> Pool.shutdown q) @@ fun () ->
  let total = Atomic.make 0 in
  Pool.parallel_for q ~chunks:500 ~n:500 (fun _ _ _ ->
      ignore (Atomic.fetch_and_add total 1));
  check_int "500 tasks all ran" 500 (Atomic.get total)

exception Boom

let exception_does_not_lose_tasks () =
  let p = Pool.create 4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  let done_count = Atomic.make 0 in
  let raised =
    try
      Pool.parallel_for p ~chunks:64 ~n:64 (fun _ lo _ ->
          if lo = 12 then raise Boom
          else ignore (Atomic.fetch_and_add done_count 1));
      false
    with Boom -> true
  in
  check "parallel_for re-raises the task's exception" true raised;
  (* the other 63 tasks must still have completed: the pool drains the
     queue before propagating *)
  check_int "remaining tasks completed" 63 (Atomic.get done_count);
  (* and the pool remains usable for the next batch *)
  let again = Atomic.make 0 in
  Pool.parallel_for p ~chunks:4 ~n:40 (fun _ lo hi ->
      ignore (Atomic.fetch_and_add again (hi - lo)));
  check_int "pool usable after exception" 40 (Atomic.get again)

let submit_after_shutdown () =
  let p = Pool.create 2 in
  Pool.parallel_for p ~chunks:2 ~n:10 (fun _ _ _ -> ());
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  check "parallel_for after shutdown raises" true
    (match Pool.parallel_for p ~chunks:2 ~n:10 (fun _ _ _ -> ()) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "submit_res names the shutdown" true
    (Pool.submit_res p (fun () -> ()) = Error Pool.Shutting_down)

(* submit_res with ~max_pending is the server's backpressure valve:
   while [max_pending] tasks are submitted-but-unfinished it must
   decline, and a declined task must never run. The decline reason is
   typed: the server maps Queue_full to Overloaded and Shutting_down
   to Unavailable, so the two must stay distinguishable. *)
let submit_res_reasons () =
  let p = Pool.create 1 in
  let gate = Atomic.make false in
  let ran = Atomic.make 0 in
  let drain () =
    while Pool.pending p > 0 do
      Domain.cpu_relax ()
    done
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set gate true;
      Pool.shutdown p)
  @@ fun () ->
  check "first task accepted" true
    (Pool.submit_res ~max_pending:1 p (fun () ->
         while not (Atomic.get gate) do
           Domain.cpu_relax ()
         done;
         Atomic.incr ran)
    = Ok ());
  (* pending = 1 from the moment of submission (queued or running),
     so the bound is already saturated *)
  check "saturated bound is Queue_full" true
    (Pool.submit_res ~max_pending:1 p (fun () -> Atomic.incr ran)
    = Error Pool.Queue_full);
  (* without a bound the same pool still accepts *)
  check "unbounded submit accepted" true
    (Pool.submit_res p (fun () -> Atomic.incr ran) = Ok ());
  Atomic.set gate true;
  drain ();
  check_int "declined task never ran" 2 (Atomic.get ran);
  check "bound clears once pending drains" true
    (Pool.submit_res ~max_pending:1 p (fun () -> Atomic.incr ran) = Ok ());
  drain ();
  check_int "accepted task ran" 3 (Atomic.get ran);
  Pool.shutdown p;
  (* after shutdown even a saturated-looking bound reports the
     shutdown, not the queue *)
  check "stopped pool is Shutting_down" true
    (Pool.submit_res ~max_pending:0 p (fun () -> Atomic.incr ran)
    = Error Pool.Shutting_down)

(* The same verification workload, metrics on, at jobs=1 and jobs=4:
   after Obs.Metrics.deterministic (which drops timing and scheduling
   metrics) the two snapshots must be structurally identical — the
   shard merge is commutative, so how the work was split cannot show. *)
let snapshot_of_workload jobs =
  Obs.Metrics.reset ();
  let inst = Instance.of_graph (Builders.cycle 24) in
  let scheme = Bipartite_scheme.scheme in
  (match scheme.Scheme.prover inst with
  | None -> Alcotest.fail "bipartite prover failed on C24"
  | Some proof ->
      let verdicts, _ =
        Simulator.run_verifier ~jobs inst proof ~radius:scheme.Scheme.radius
          scheme.Scheme.verifier
      in
      check "honest proof accepted" true
        (List.for_all snd verdicts));
  check "sound on C24" true
    (Checker.soundness_random ~jobs scheme inst ~samples:120 ~max_bits:3);
  Obs.Metrics.deterministic (Obs.Metrics.snapshot ())

let snapshots_jobs_invariant () =
  Fun.protect ~finally:(fun () ->
      Obs.disable ();
      Obs.Metrics.reset ())
  @@ fun () ->
  Obs.enable ();
  let s1 = snapshot_of_workload 1 in
  let s4 = snapshot_of_workload 4 in
  (* guard against the test passing vacuously on an empty snapshot *)
  check_int "all soundness samples counted" 120
    (Obs.Metrics.count s1 "checker.samples");
  check "verifier ran" true (Obs.Metrics.count s1 "simulator.verifier_calls" >= 24);
  check "jobs=1 and jobs=4 snapshots identical" true (s1 = s4)

let suite =
  ( "pool-edges",
    [
      Alcotest.test_case "more workers than work" `Quick more_workers_than_work;
      Alcotest.test_case "exception completes remaining tasks" `Quick
        exception_does_not_lose_tasks;
      Alcotest.test_case "submit after shutdown" `Quick submit_after_shutdown;
      Alcotest.test_case "submit_res decline reasons" `Quick
        submit_res_reasons;
      Alcotest.test_case "metrics snapshots jobs-invariant" `Quick
        snapshots_jobs_invariant;
    ] )
