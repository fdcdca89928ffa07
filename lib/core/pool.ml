(* Observability: queue depth is a high-water gauge, busy/idle are
   per-worker nanosecond counters (sharded per domain, so the snapshot
   shows aggregate utilisation); every task execution is a trace span
   on its worker's timeline. All recording is guarded by the metrics /
   trace enabled flags — a disabled pool pays one check per site. *)
let m_queue_depth = Obs.Metrics.gauge_max "pool.queue_depth_max"
let m_tasks = Obs.Metrics.counter "pool.tasks_completed"
let m_busy_ns = Obs.Metrics.counter "pool.busy_ns"
let m_idle_ns = Obs.Metrics.counter "pool.idle_ns"
let m_alloc_bytes = Obs.Metrics.counter "pool.task_alloc_bytes"

type t = {
  size : int;
  lock : Mutex.t;
  has_work : Condition.t; (* signalled on submit and shutdown *)
  quiescent : Condition.t; (* signalled when pending reaches 0 *)
  tasks : (unit -> unit) Queue.t;
  mutable pending : int; (* queued + running *)
  mutable stopping : bool;
  mutable error : exn option; (* first task exception, for [wait] *)
  mutable workers : unit Domain.t list;
}

let size p = p.size
let default_jobs () = Domain.recommended_domain_count ()

let pending p =
  Mutex.lock p.lock;
  let n = p.pending in
  Mutex.unlock p.lock;
  n

let rec worker_loop p =
  Mutex.lock p.lock;
  let t_wait = if !Obs.Metrics.enabled then Obs.Clock.now_ns () else 0 in
  while Queue.is_empty p.tasks && not p.stopping do
    Condition.wait p.has_work p.lock
  done;
  if t_wait <> 0 then Obs.Metrics.add m_idle_ns (Obs.Clock.now_ns () - t_wait);
  if Queue.is_empty p.tasks then (* stopping and drained *)
    Mutex.unlock p.lock
  else begin
    let task = Queue.pop p.tasks in
    Mutex.unlock p.lock;
    let t_run = if !Obs.Metrics.enabled then Obs.Clock.now_ns () else 0 in
    (* Profiler hooks: the "pool.task" span feeds the worker's
       active-span stack (so the sampler attributes this domain's time
       even with tracing off), and Gc.allocated_bytes bracketing — a
       per-domain counter, exact because the task owns this domain —
       charges the task's allocations to the pool counter. *)
    let a_run = if !Obs.Profile.enabled then Gc.allocated_bytes () else 0.0 in
    (try
       if Obs.Trace.on () then Obs.Trace.span "pool.task" task else task ()
     with e ->
       Mutex.lock p.lock;
       if p.error = None then p.error <- Some e;
       Mutex.unlock p.lock);
    if !Obs.Profile.enabled && a_run > 0.0 then
      Obs.Metrics.add m_alloc_bytes
        (int_of_float (Gc.allocated_bytes () -. a_run));
    if t_run <> 0 then Obs.Metrics.add m_busy_ns (Obs.Clock.now_ns () - t_run);
    Obs.Metrics.incr m_tasks;
    Mutex.lock p.lock;
    p.pending <- p.pending - 1;
    if p.pending = 0 then Condition.broadcast p.quiescent;
    Mutex.unlock p.lock;
    worker_loop p
  end

let create size =
  if size < 1 then invalid_arg "Pool.create: need at least one worker";
  let p =
    {
      size;
      lock = Mutex.create ();
      has_work = Condition.create ();
      quiescent = Condition.create ();
      tasks = Queue.create ();
      pending = 0;
      stopping = false;
      error = None;
      workers = [];
    }
  in
  p.workers <- List.init size (fun _ -> Domain.spawn (fun () -> worker_loop p));
  Obs.Trace.instant ~arg_name:"workers" ~arg:size "pool.create";
  p

type decline = Queue_full | Shutting_down

(* Shutdown wins over a full queue when both hold: the caller must not
   be told to "retry later" against a pool that will never come back. *)
let submit_res ?max_pending p task =
  Mutex.lock p.lock;
  let verdict =
    if p.stopping then Error Shutting_down
    else
      match max_pending with
      | Some b when p.pending >= b -> Error Queue_full
      | _ -> Ok ()
  in
  (match verdict with
  | Ok () ->
      Queue.push task p.tasks;
      p.pending <- p.pending + 1;
      Obs.Metrics.observe_max m_queue_depth (Queue.length p.tasks);
      Condition.signal p.has_work
  | Error _ -> ());
  Mutex.unlock p.lock;
  verdict

let submit p task =
  if Result.is_error (submit_res p task) then
    invalid_arg "Pool.submit: pool is shut down"

(* Block until every submitted task has finished, then re-raise the
   first exception a task raised, if any. *)
let wait p =
  Mutex.lock p.lock;
  while p.pending > 0 do
    Condition.wait p.quiescent p.lock
  done;
  let err = p.error in
  p.error <- None;
  Mutex.unlock p.lock;
  match err with Some e -> raise e | None -> ()

let shutdown p =
  Mutex.lock p.lock;
  let already = p.stopping in
  p.stopping <- true;
  Condition.broadcast p.has_work;
  Mutex.unlock p.lock;
  if not already then begin
    List.iter Domain.join p.workers;
    p.workers <- [];
    Obs.Trace.instant ~arg_name:"workers" ~arg:p.size "pool.shutdown"
  end

let run ~jobs f =
  if jobs <= 1 then f None
  else
    let p = create jobs in
    Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f (Some p))

let parallel_for p ~chunks ~n body =
  if chunks < 1 then invalid_arg "Pool.parallel_for: chunks < 1";
  if n > 0 then begin
    let k = min chunks n in
    let base = n / k and rem = n mod k in
    let lo = ref 0 in
    for c = 0 to k - 1 do
      let width = base + if c < rem then 1 else 0 in
      let l = !lo in
      let h = l + width in
      lo := h;
      submit p (fun () -> body c l h)
    done;
    wait p
  end
