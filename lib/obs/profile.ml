(* Poll-based wall-clock profiler over the active-span stacks that
   [Trace] maintains per domain. One mutex serialises the sampler
   tick, the per-scheme accounting and the exporters — all of them are
   rare (hz per second, one per request, one per scrape) next to the
   request path, which never touches this module beyond the
   [Trace.stacks_on] flag and the [account] bracketing. *)

let enabled = ref false
let hz_ref = ref 97
let hz () = max 1 !hz_ref

let word_bytes = float_of_int (Sys.word_size / 8)

let mu = Mutex.create ()

(* Distinct observed stacks -> sample count, keyed by the collapsed
   rendering ("outer;inner;leaf"). The tree shape is recoverable from
   the keys, so we never materialise tree nodes. *)
let table : (string, int ref) Hashtbl.t = Hashtbl.create 64
let ticks = ref 0
let stack_count = ref 0

(* Exact per-scheme accounts, fed by [account] from the pool worker. *)
type acc = { mutable cpu_ns : int; mutable alloc : float; mutable n : int }

let scheme_table : (string, acc) Hashtbl.t = Hashtbl.create 16

(* Allocation-rate window: the sampler records the delta of
   domain-aggregate allocated bytes between ticks into a 60 s window,
   so the exposition can report a rolling bytes/s gauge. *)
let alloc_window = Window.create ~horizon:60 ~counters:1 ()
let last_alloc = ref (-1.0)

let allocated_bytes_of (st : Gc.stat) =
  (st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words) *. word_bytes

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let sample_now () =
  let now = Clock.now_ns () in
  locked @@ fun () ->
  incr ticks;
  for id = 0 to Trace.max_stack_domains - 1 do
    let frames = Trace.stack_snapshot id in
    if Array.length frames > 0 then begin
      let key = String.concat ";" (Array.to_list frames) in
      (match Hashtbl.find_opt table key with
      | Some r -> incr r
      | None -> Hashtbl.add table key (ref 1));
      incr stack_count
    end
  done;
  let alloc = allocated_bytes_of (Gc.quick_stat ()) in
  if !last_alloc >= 0.0 then begin
    let d = alloc -. !last_alloc in
    if d > 0.0 then Window.add ~now_ns:now alloc_window 0 (int_of_float d)
  end;
  last_alloc := alloc

let samples () = locked @@ fun () -> !ticks
let stack_samples () = locked @@ fun () -> !stack_count

let account ~scheme ~cpu_ns ~alloc_bytes =
  if !enabled then
    locked @@ fun () ->
    match Hashtbl.find_opt scheme_table scheme with
    | Some a ->
        a.cpu_ns <- a.cpu_ns + cpu_ns;
        a.alloc <- a.alloc +. alloc_bytes;
        a.n <- a.n + 1
    | None ->
        Hashtbl.add scheme_table scheme
          { cpu_ns = cpu_ns; alloc = alloc_bytes; n = 1 }

let schemes () =
  let rows =
    locked @@ fun () ->
    Hashtbl.fold
      (fun s a l -> (s, a.cpu_ns, a.alloc, a.n) :: l)
      scheme_table []
  in
  List.sort
    (fun (s1, c1, _, _) (s2, c2, _, _) ->
      match compare c2 c1 with 0 -> compare s1 s2 | c -> c)
    rows

let reset () =
  locked @@ fun () ->
  Hashtbl.reset table;
  Hashtbl.reset scheme_table;
  ticks := 0;
  stack_count := 0;
  last_alloc := -1.0

(* --- sampler thread -------------------------------------------------- *)

let running = ref false
let sampler : Thread.t option ref = ref None

let rec loop () =
  if !running then begin
    sample_now ();
    Thread.delay (1.0 /. float_of_int (hz ()));
    loop ()
  end

let start ?(hz = 97) () =
  if not !enabled then begin
    hz_ref := max 1 hz;
    enabled := true;
    Trace.stacks_on := true;
    running := true;
    sampler := Some (Thread.create loop ())
  end

let stop () =
  if !enabled then begin
    running := false;
    enabled := false;
    Trace.stacks_on := false;
    (match !sampler with Some t -> Thread.join t | None -> ());
    sampler := None
  end

(* --- exports --------------------------------------------------------- *)

(* Distinct stacks sorted by descending weight, heaviest first, ties
   broken lexically so exports are deterministic. *)
let sorted_stacks () =
  let rows =
    locked @@ fun () -> Hashtbl.fold (fun k r l -> (k, !r) :: l) table []
  in
  List.sort
    (fun (k1, c1) (k2, c2) ->
      match compare c2 c1 with 0 -> compare k1 k2 | c -> c)
    rows

let collapsed () =
  let b = Buffer.create 1024 in
  List.iter
    (fun (k, c) -> Printf.bprintf b "%s %d\n" k c)
    (sorted_stacks ());
  Buffer.contents b

let ns_per_sample () = 1_000_000_000 / hz ()

(* Speedscope "sampled" profile: one entry per distinct stack (frame
   indices into a shared frame table, outermost first), weighted by
   sample count x the sampling period in nanoseconds. *)
let speedscope_into b =
  let stacks = sorted_stacks () in
  let frame_ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let frames = Buffer.create 256 in
  let n_frames = ref 0 in
  let frame_id name =
    match Hashtbl.find_opt frame_ids name with
    | Some i -> i
    | None ->
        let i = !n_frames in
        incr n_frames;
        Hashtbl.add frame_ids name i;
        if i > 0 then Buffer.add_char frames ',';
        Printf.bprintf frames "{\"name\":\"%s\"}" (Json.escape name);
        i
  in
  let samples = Buffer.create 256 in
  let weights = Buffer.create 128 in
  let total = ref 0 in
  List.iteri
    (fun i (key, count) ->
      if i > 0 then begin
        Buffer.add_char samples ',';
        Buffer.add_char weights ','
      end;
      Buffer.add_char samples '[';
      List.iteri
        (fun j name ->
          if j > 0 then Buffer.add_char samples ',';
          Buffer.add_string samples (string_of_int (frame_id name)))
        (String.split_on_char ';' key);
      Buffer.add_char samples ']';
      let w = count * ns_per_sample () in
      total := !total + w;
      Buffer.add_string weights (string_of_int w))
    stacks;
  Printf.bprintf b
    "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",\"exporter\":\"lcp\",\"name\":\"%s\",\"shared\":{\"frames\":[%s]},\"profiles\":[{\"type\":\"sampled\",\"name\":\"%s\",\"unit\":\"nanoseconds\",\"startValue\":0,\"endValue\":%d,\"samples\":[%s],\"weights\":[%s]}]}"
    (Json.escape !Trace.process)
    (Buffer.contents frames)
    (Json.escape !Trace.process)
    !total (Buffer.contents samples) (Buffer.contents weights)

let gc_json () =
  let st = Gc.quick_stat () in
  Printf.sprintf
    "{\"minor_collections\":%d,\"major_collections\":%d,\"compactions\":%d,\"promoted_words\":%.0f,\"allocated_bytes\":%.0f,\"heap_bytes\":%.0f,\"top_heap_bytes\":%.0f}"
    st.Gc.minor_collections st.Gc.major_collections st.Gc.compactions
    st.Gc.promoted_words
    (allocated_bytes_of st)
    (float_of_int st.Gc.heap_words *. word_bytes)
    (float_of_int st.Gc.top_heap_words *. word_bytes)

let export_string () =
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\"process\":\"%s\",\"enabled\":%b,\"hz\":%d,\"samples\":%d,\"stack_samples\":%d,\"gc\":%s,\"schemes\":["
    (Json.escape !Trace.process)
    !enabled (hz ()) (samples ()) (stack_samples ()) (gc_json ());
  List.iteri
    (fun i (s, cpu, alloc, n) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"scheme\":\"%s\",\"cpu_ns\":%d,\"alloc_bytes\":%.0f,\"requests\":%d}"
        (Json.escape s) cpu alloc n)
    (schemes ());
  Printf.bprintf b "],\"collapsed\":\"%s\",\"speedscope\":"
    (Json.escape (collapsed ()));
  speedscope_into b;
  Buffer.add_char b '}';
  Buffer.contents b

let exposition e =
  let st = Gc.quick_stat () in
  Export.counter e ~help:"minor GC collections" "gc.minor_collections"
    st.Gc.minor_collections;
  Export.counter e ~help:"major GC collections" "gc.major_collections"
    st.Gc.major_collections;
  Export.counter e ~help:"heap compactions" "gc.compactions" st.Gc.compactions;
  Export.counter e ~help:"words promoted from the minor heap"
    "gc.promoted_words"
    (int_of_float st.Gc.promoted_words);
  Export.counter e ~help:"bytes allocated since start" "gc.allocated_bytes"
    (int_of_float (allocated_bytes_of st));
  Export.gauge e ~help:"major heap size in bytes" "gc.heap_bytes"
    (float_of_int st.Gc.heap_words *. word_bytes);
  Export.gauge e ~help:"largest major heap size ever reached"
    "gc.top_heap_bytes"
    (float_of_int st.Gc.top_heap_words *. word_bytes);
  Export.counter e ~help:"profiler sampling ticks" "profile.samples"
    (samples ());
  Export.counter e
    ~help:"non-idle stack samples folded into the attribution tree"
    "profile.stack_samples" (stack_samples ());
  if !enabled then begin
    let w = Window.stats ~seconds:10 alloc_window in
    let rate =
      if w.Window.seconds > 0 then
        float_of_int w.Window.counters.(0) /. float_of_int w.Window.seconds
      else 0.0
    in
    Export.gauge e
      ~help:"allocation rate over the last 10s (profiler-sampled)"
      "gc.alloc_bytes_per_s" rate
  end;
  List.iter
    (fun (s, cpu, alloc, n) ->
      let labels = [ ("scheme", s) ] in
      Export.counter e ~labels ~help:"CPU time attributed to scheme"
        "scheme_cpu_ns" cpu;
      Export.counter e ~labels ~help:"bytes allocated attributed to scheme"
        "scheme_alloc_bytes" (int_of_float alloc);
      Export.counter e ~labels ~help:"requests attributed to scheme"
        "scheme_requests" n)
    (schemes ())
