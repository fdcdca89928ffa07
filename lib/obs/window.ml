(* Rolling-window telemetry: a ring of one-second slices, each holding
   a log₂ histogram plus a caller-defined set of counters. Recording
   stamps the current second's slice (lazily zeroing it when the ring
   position is reused for a new second), so a [stats] call can merge
   the last k seconds without ever resetting the cumulative metrics in
   {!Metrics} — the two views coexist.

   Unlike {!Metrics}, windows are explicit values owned by whoever
   records into them (the server's request path), not globally-gated
   registry entries: one [Mutex] per window serialises the per-request
   record, which is noise next to a prove/verify round trip. *)

let buckets = 64

type slice = {
  mutable stamp : int;  (* absolute second this slice describes; -1 = never *)
  hist : int array;  (* log₂ buckets, as in {!Metrics} *)
  mutable count : int;
  mutable sum : int;
  mutable max : int;
  counters : int array;
}

type t = {
  lock : Mutex.t;
  slices : slice array;  (* horizon + 1, so the horizon excludes the slot
                            currently being recycled *)
  horizon : int;
}

let create ?(horizon = 60) ?(counters = 0) () =
  if horizon < 1 then invalid_arg "Window.create: horizon < 1";
  if counters < 0 then invalid_arg "Window.create: counters < 0";
  {
    lock = Mutex.create ();
    slices =
      Array.init (horizon + 1) (fun _ ->
          {
            stamp = -1;
            hist = Array.make buckets 0;
            count = 0;
            sum = 0;
            max = 0;
            counters = Array.make (Stdlib.max 1 counters) 0;
          });
    horizon;
  }

(* Same bucketing as {!Metrics}: 0 for v <= 0, else the bit length of
   v, so bucket b covers [2^(b-1), 2^b). *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x <> 0 do
      b := !b + 1;
      x := !x lsr 1
    done;
    !b
  end

(* Upper edge of a bucket — what quantiles report: every value placed
   in bucket b is <= this. *)
let bucket_upper b = if b <= 0 then 0 else (1 lsl b) - 1

(* Resolve the slice for [now_ns]'s second, zeroing it first if the
   ring slot still holds an older second. Call with the lock held. *)
let slice_for t now_ns =
  let sec = now_ns / 1_000_000_000 in
  let s = t.slices.(sec mod Array.length t.slices) in
  if s.stamp <> sec then begin
    Array.fill s.hist 0 buckets 0;
    Array.fill s.counters 0 (Array.length s.counters) 0;
    s.count <- 0;
    s.sum <- 0;
    s.max <- 0;
    s.stamp <- sec
  end;
  s

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let observe ?now_ns t v =
  let now_ns = match now_ns with Some n -> n | None -> Clock.now_ns () in
  locked t @@ fun () ->
  let s = slice_for t now_ns in
  s.hist.(bucket_of v) <- s.hist.(bucket_of v) + 1;
  s.count <- s.count + 1;
  s.sum <- s.sum + v;
  if v > s.max then s.max <- v

let add ?now_ns t c v =
  let now_ns = match now_ns with Some n -> n | None -> Clock.now_ns () in
  locked t @@ fun () ->
  let s = slice_for t now_ns in
  if c < 0 || c >= Array.length s.counters then
    invalid_arg "Window.add: counter index out of range";
  s.counters.(c) <- s.counters.(c) + v

let incr ?now_ns t c = add ?now_ns t c 1

type stats = {
  seconds : int;
  count : int;
  sum : int;
  max : int;
  rate : float;
  p50 : int;
  p95 : int;
  p99 : int;
  counters : int array;
}

(* Quantile over a merged log₂ histogram: the upper edge of the bucket
   holding the ceil(q * count)-th smallest observation. Exact for the
   bucket, pessimistic (never under-reports) within it. *)
let quantile hist count q =
  if count = 0 then 0
  else begin
    let target =
      let t = int_of_float (ceil (q *. float_of_int count)) in
      if t < 1 then 1 else if t > count then count else t
    in
    let cum = ref 0 and b = ref 0 and res = ref (bucket_upper (buckets - 1)) in
    (try
       while !b < buckets do
         cum := !cum + hist.(!b);
         if !cum >= target then begin
           res := bucket_upper !b;
           raise Exit
         end;
         b := !b + 1
       done
     with Exit -> ());
    !res
  end

let stats ?now_ns ?(seconds = 10) t =
  let now_ns = match now_ns with Some n -> n | None -> Clock.now_ns () in
  let seconds = max 1 (min seconds t.horizon) in
  let sec_now = now_ns / 1_000_000_000 in
  locked t @@ fun () ->
  let hist = Array.make buckets 0 in
  let count = ref 0 and sum = ref 0 and mx = ref 0 in
  let counters = Array.make (Array.length t.slices.(0).counters) 0 in
  Array.iter
    (fun s ->
      (* the live window is the last [seconds] seconds including the
         current (partial) one *)
      if s.stamp > sec_now - seconds && s.stamp <= sec_now then begin
        for b = 0 to buckets - 1 do
          hist.(b) <- hist.(b) + s.hist.(b)
        done;
        count := !count + s.count;
        sum := !sum + s.sum;
        if s.max > !mx then mx := s.max;
        Array.iteri (fun i v -> counters.(i) <- counters.(i) + v) s.counters
      end)
    t.slices;
  {
    seconds;
    count = !count;
    sum = !sum;
    max = !mx;
    rate = float_of_int !count /. float_of_int seconds;
    p50 = quantile hist !count 0.50;
    p95 = quantile hist !count 0.95;
    p99 = quantile hist !count 0.99;
    counters;
  }
