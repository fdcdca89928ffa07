(* Observability facade: [Obs.Clock] (monotonic timing), [Obs.Metrics]
   (domain-sharded counters / gauges / histograms), [Obs.Trace]
   (ring-buffer spans exported as Chrome trace-event JSON),
   [Obs.Window] (rolling 1 s-bucketed telemetry), [Obs.Export]
   (Prometheus text exposition) and [Obs.Log] (sampled structured
   JSON logs), plus [session]: the one lifecycle every command runs
   its telemetry through.

   The globally-gated layer (Metrics, Trace) is off by default and
   must cost a single mutable check per record site when disabled —
   instrumented code guards any non-trivial argument computation
   (clock reads, closures) behind [!Metrics.enabled] /
   [!Trace.enabled]. Windows, exports and logs are explicit values:
   they cost nothing unless someone creates one and records into
   it. *)

module Clock = Clock
module Metrics = Metrics
module Trace = Trace
module Window = Window
module Export = Export
module Log = Log
module Json = Json
module Trace_merge = Trace_merge
module Profile = Profile

(* Ring-wrap losses were silent; surfacing them as an external counter
   puts them in every snapshot (and thus the Prometheus exposition)
   next to the metrics they may have cost events. *)
let () = Metrics.external_counter "trace.dropped" Trace.dropped

let enable ?(metrics = true) ?(trace = false) () =
  if metrics then Metrics.enabled := true;
  if trace then begin
    Trace.clear ();
    Trace.enabled := true
  end

let disable () =
  Metrics.enabled := false;
  Trace.enabled := false

let enabled () = !Metrics.enabled || !Trace.enabled

(* --- one observability session per process ----------------------------- *)

type config = {
  metrics : bool;  (* engine counters on; the table prints on exit *)
  trace_sample : int;  (* head-sample 1 in N rids; > 0 turns the ring on *)
  dir : string option;  (* spool directory; turns the ring on *)
  profile : bool;  (* the wall-clock sampler at [profile_hz] *)
}

let off = { metrics = false; trace_sample = 0; dir = None; profile = false }

(* Prime, so the sampler does not alias with millisecond-periodic work. *)
let profile_hz = 97

(* The lane name made safe as a file-name component. *)
let lane_file () =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> c
      | _ -> '_')
    !Trace.process

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* Every file the session writes lands in [dir], named
   [<kind>-<lane>.<ext>], so `lcp trace merge dir/trace-*.json` picks
   up every lane of a cluster run. [exposition] renders the caller's
   Prometheus families. *)
let spool ~profile ?exposition dir =
  Trace.mkdir_p dir;
  let path kind ext =
    Filename.concat dir (Printf.sprintf "%s-%s.%s" kind (lane_file ()) ext)
  in
  let trace = path "trace" "json" in
  Trace.export trace;
  Format.printf "trace lane %S (%d events%s) spooled to %s@." !Trace.process
    (Trace.recorded ())
    (match Trace.dropped () with
    | 0 -> ""
    | d -> Printf.sprintf ", %d dropped" d)
    trace;
  if profile then begin
    let p = path "profile" "json" in
    write_file p (Profile.export_string ());
    Format.printf "profile (%d sample(s), %d stack(s)) spooled to %s@."
      (Profile.samples ()) (Profile.stack_samples ()) p
  end;
  Option.iter
    (fun render ->
      let e = Export.create () in
      render e;
      let p = path "metrics" "prom" in
      write_file p (Export.contents e);
      Format.printf "metrics exposition spooled to %s@." p)
    exposition

(* Turn on what [cfg] asks for, run [f] and, on the way out, stop the
   sampler, spool into [cfg.dir] and print the metrics table. The
   optional [exposition] sees [f]'s result and adds
   [metrics-<lane>.prom] to the spool. *)
let session ~process ?exposition cfg f =
  Trace.process := process;
  enable ~metrics:cfg.metrics
    ~trace:(cfg.dir <> None || cfg.trace_sample > 0)
    ();
  if cfg.profile then Profile.start ~hz:profile_hz ();
  let result = f () in
  if cfg.profile then Profile.stop ();
  let exposition = Option.map (fun render -> render result) exposition in
  Option.iter (spool ~profile:cfg.profile ?exposition) cfg.dir;
  if cfg.metrics then
    Format.printf "@.metrics:@.%a" Metrics.pp (Metrics.snapshot ());
  result
