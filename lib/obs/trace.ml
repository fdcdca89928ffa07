let enabled = ref false

(* Distributed-tracing identity of an event: the 126-bit trace id as
   two 63-bit halves, the event's own span id, and the span it nests
   under (0 = root). All-zero ([null_ctx]) marks an untraced event and
   keeps the exported JSON byte-identical to the pre-tracing format. *)
type ctx = { t_hi : int; t_lo : int; span : int; parent : int }

let null_ctx = { t_hi = 0; t_lo = 0; span = 0; parent = 0 }

(* The process lane name baked into every export; callers set it to
   something unique per process (e.g. "serve:7421#1234" with the pid)
   before spooling so merged timelines get distinct lanes. *)
let process = ref "lcp"

(* splitmix64-style finalizer, truncated to OCaml's 63-bit int. Pure,
   so every process hashing the same rid lands on the same value —
   that is what makes head-based sampling and rid-derived trace ids
   agree across client, router and backend without coordination. *)
let mix x =
  let h = ref (x * 0x4F1BBCDCBFA53E0B) in
  h := (!h lxor (!h lsr 30)) * 0x2545F4914F6CDD1D;
  h := (!h lxor (!h lsr 27)) * 0x7FB5D329728EA185;
  (!h lxor (!h lsr 31)) land max_int

(* 1-in-[every] head-based sampling keyed on the correlation id. *)
let sample ~every rid =
  if every <= 0 then false
  else if every = 1 then true
  else mix (rid + 0x51ED) mod every = 0

(* Trace id derived deterministically from the rid: the two halves use
   distinct tweaks so the 126-bit id is not just a repeated hash. *)
let trace_of_rid rid =
  let nz v = if v = 0 then 1 else v in
  (nz (mix (rid lxor 0x7472616365)), nz (mix (rid + 0x69645F6C6F)))

(* Span ids only need to be unique across the processes of one trace;
   a per-process seed from the monotonic clock plus a counter mixed
   through the same finalizer gets there without coordination. *)
let span_seed = Clock.now_ns ()
let span_counter = Atomic.make 1

let new_span_id () =
  let n = Atomic.fetch_and_add span_counter 1 in
  let v = mix (span_seed lxor (n * 0x9E3779B1)) in
  if v = 0 then 1 else v

let ctx_of_rid ?(parent = 0) rid =
  let t_hi, t_lo = trace_of_rid rid in
  { t_hi; t_lo; span = new_span_id (); parent }

let hex_id hi lo = Printf.sprintf "%016x%016x" hi lo

type buf = {
  mask : int;  (* capacity - 1; capacity is a power of two *)
  name : string array;
  ph : Bytes.t;
  ts : int array;  (* ns relative to [epoch] *)
  dur : int array;
  tid : int array;
  arg_name : string array;
  arg : int array;
  e_hi : int array;  (* trace id halves; 0,0 = untraced event *)
  e_lo : int array;
  span : int array;
  parent : int array;
  cursor : int Atomic.t;  (* total events ever emitted *)
}

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let mk capacity =
  let cap = pow2 (max 16 capacity) 16 in
  {
    mask = cap - 1;
    name = Array.make cap "";
    ph = Bytes.make cap 'X';
    ts = Array.make cap 0;
    dur = Array.make cap 0;
    tid = Array.make cap 0;
    arg_name = Array.make cap "";
    arg = Array.make cap 0;
    e_hi = Array.make cap 0;
    e_lo = Array.make cap 0;
    span = Array.make cap 0;
    parent = Array.make cap 0;
    cursor = Atomic.make 0;
  }

let buf = ref (mk 65536)
let epoch = ref (Clock.now_ns ())

let clear () =
  buf := mk (!buf.mask + 1);
  epoch := Clock.now_ns ()

let set_capacity n =
  buf := mk n;
  epoch := Clock.now_ns ()

(* Each event claims a distinct slot via fetch-and-add; two domains
   only touch the same slot when the ring has lapped, in which case the
   older event was already forfeit. *)
let emit_ctx ph name arg_name arg ctx ts dur =
  let b = !buf in
  let i = Atomic.fetch_and_add b.cursor 1 land b.mask in
  Array.unsafe_set b.name i name;
  Bytes.unsafe_set b.ph i ph;
  Array.unsafe_set b.ts i (ts - !epoch);
  Array.unsafe_set b.dur i dur;
  Array.unsafe_set b.tid i (Domain.self () :> int);
  Array.unsafe_set b.arg_name i arg_name;
  Array.unsafe_set b.arg i arg;
  Array.unsafe_set b.e_hi i ctx.t_hi;
  Array.unsafe_set b.e_lo i ctx.t_lo;
  Array.unsafe_set b.span i ctx.span;
  Array.unsafe_set b.parent i ctx.parent

let emit ph name arg_name arg ts dur =
  emit_ctx ph name arg_name arg null_ctx ts dur

(* --- per-domain active-span stacks (the profiler's raw material) ---- *)

(* Each domain owns a fixed-size stack of the span names currently
   open on it, maintained by the [span*] entry points when [stacks_on]
   is set (the profiler's switch — tracing alone never pays for it).
   The stacks are read cross-thread by the [Profile] sampler without
   any synchronisation: a torn read costs one misattributed sample,
   never a crash, because every slot always holds a valid string.
   Threads multiplexed onto one domain (the server's connection
   threads all live on domain 0) share that domain's stack; their
   interleaved pushes and pops stay depth-balanced, so the shared lane
   degrades to attribution noise while the pool domains — where the
   compute actually runs, one task at a time — stay exact. *)

let stacks_on = ref false
let max_stack_domains = 128
let max_stack_depth = 32

type dstack = { frames : string array; mutable depth : int }

let stacks =
  Array.init max_stack_domains (fun _ ->
      { frames = Array.make max_stack_depth ""; depth = 0 })

let push_frame name =
  let id = (Domain.self () :> int) in
  if id < max_stack_domains then begin
    let s = stacks.(id) in
    if s.depth >= 0 && s.depth < max_stack_depth then s.frames.(s.depth) <- name;
    s.depth <- s.depth + 1
  end

let pop_frame () =
  let id = (Domain.self () :> int) in
  if id < max_stack_domains then begin
    let s = stacks.(id) in
    if s.depth > 0 then s.depth <- s.depth - 1
  end

let stack_snapshot id =
  if id < 0 || id >= max_stack_domains then [||]
  else begin
    let s = stacks.(id) in
    let d = min s.depth max_stack_depth in
    if d <= 0 then [||] else Array.init d (fun i -> s.frames.(i))
  end

let on () = !enabled || !stacks_on

let span name f =
  if not (!enabled || !stacks_on) then f ()
  else begin
    if !stacks_on then push_frame name;
    let t0 = Clock.now_ns () in
    match f () with
    | r ->
        if !stacks_on then pop_frame ();
        if !enabled then emit 'X' name "" 0 t0 (Clock.now_ns () - t0);
        r
    | exception e ->
        if !stacks_on then pop_frame ();
        if !enabled then emit 'X' name "" 0 t0 (Clock.now_ns () - t0);
        raise e
  end

let span_arg name arg_name arg f =
  if not (!enabled || !stacks_on) then f ()
  else begin
    if !stacks_on then push_frame name;
    let t0 = Clock.now_ns () in
    match f () with
    | r ->
        if !stacks_on then pop_frame ();
        if !enabled then emit 'X' name arg_name arg t0 (Clock.now_ns () - t0);
        r
    | exception e ->
        if !stacks_on then pop_frame ();
        if !enabled then emit 'X' name arg_name arg t0 (Clock.now_ns () - t0);
        raise e
  end

let span_ctx name arg_name arg ctx f =
  if not (!enabled || !stacks_on) then f ()
  else begin
    if !stacks_on then push_frame name;
    let t0 = Clock.now_ns () in
    match f () with
    | r ->
        if !stacks_on then pop_frame ();
        if !enabled then
          emit_ctx 'X' name arg_name arg ctx t0 (Clock.now_ns () - t0);
        r
    | exception e ->
        if !stacks_on then pop_frame ();
        if !enabled then
          emit_ctx 'X' name arg_name arg ctx t0 (Clock.now_ns () - t0);
        raise e
  end

let complete ?(arg_name = "") ?(arg = 0) ?(ctx = null_ctx) name ~t0_ns ~dur_ns =
  if !enabled then emit_ctx 'X' name arg_name arg ctx t0_ns (max 0 dur_ns)

let instant ?(arg_name = "") ?(arg = 0) ?(ctx = null_ctx) name =
  if !enabled then emit_ctx 'i' name arg_name arg ctx (Clock.now_ns ()) 0

let recorded () =
  let b = !buf in
  min (Atomic.get b.cursor) (b.mask + 1)

let dropped () =
  let b = !buf in
  max 0 (Atomic.get b.cursor - (b.mask + 1))

(* [keep] filters on the event's relative start timestamp; the
   "dropped" footer counts ring-wrap losses, so readers of the JSON
   can tell a quiet trace from a lapped one. Traced events carry their
   identity in [args] — "trace" as 32 hex digits, "span"/"parent" as
   ints — which is what [Trace_merge] keys on. *)
let render_filtered bb keep =
  let b = !buf in
  let n = min (Atomic.get b.cursor) (b.mask + 1) in
  let order =
    Array.of_seq
      (Seq.filter (fun i -> keep b.ts.(i)) (Seq.init n Fun.id))
  in
  Array.sort (fun i j -> compare b.ts.(i) b.ts.(j)) order;
  Buffer.add_string bb "{\"traceEvents\":[";
  Array.iteri
    (fun k i ->
      if k > 0 then Buffer.add_string bb ",";
      let ph = Bytes.get b.ph i in
      Printf.bprintf bb
        "\n {\"name\":\"%s\",\"cat\":\"lcp\",\"ph\":\"%c\",\"pid\":0,\"tid\":%d,\"ts\":%.3f"
        (Json.escape b.name.(i)) ph b.tid.(i)
        (Clock.ns_to_us b.ts.(i));
      if ph = 'X' then Printf.bprintf bb ",\"dur\":%.3f" (Clock.ns_to_us b.dur.(i));
      let traced = b.e_hi.(i) <> 0 || b.e_lo.(i) <> 0 in
      if b.arg_name.(i) <> "" || traced then begin
        Buffer.add_string bb ",\"args\":{";
        if b.arg_name.(i) <> "" then
          Printf.bprintf bb "\"%s\":%d" (Json.escape b.arg_name.(i)) b.arg.(i);
        if traced then begin
          if b.arg_name.(i) <> "" then Buffer.add_string bb ",";
          Printf.bprintf bb "\"trace\":\"%s\",\"span\":%d,\"parent\":%d"
            (hex_id b.e_hi.(i) b.e_lo.(i))
            b.span.(i) b.parent.(i)
        end;
        Buffer.add_string bb "}"
      end;
      Buffer.add_string bb "}")
    order;
  Printf.bprintf bb
    "\n],\"dropped\":%d,\"process\":\"%s\",\"displayTimeUnit\":\"ms\"}\n"
    (dropped ())
    (Json.escape !process)

let export_filtered oc keep =
  let bb = Buffer.create 65536 in
  render_filtered bb keep;
  Buffer.output_buffer oc bb

let export_channel oc = export_filtered oc (fun _ -> true)

let export_string () =
  let bb = Buffer.create 65536 in
  render_filtered bb (fun _ -> true);
  Buffer.contents bb

let export path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> export_channel oc)

let export_slice path ~since_ns ~until_ns =
  (* absolute -> ring-relative bounds; events are kept by their start
     timestamp, so a span straddling [since_ns] is kept iff it began
     inside the slice *)
  let lo = since_ns - !epoch and hi = until_ns - !epoch in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> export_filtered oc (fun ts -> ts >= lo && ts <= hi))

(* mkdir -p without the unix dependency: walk up with
   Filename.dirname, then create on the way back down. Races and
   pre-existing components surface as Sys_error and are ignored — the
   caller's subsequent open reports any real failure. *)
let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end
