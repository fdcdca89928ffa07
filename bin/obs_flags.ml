(* The observability flags every telemetry-recording command shares.
   Each evaluates to a piece of one [Obs.config], which the command
   hands to [Obs.session]; a command takes only the flags that apply
   to it. *)

open Cmdliner

let metrics =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Collect engine metrics: a command prints them when it exits, \
           bench embeds them per row in BENCH_lcp.json.")

let obs_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "obs-dir" ] ~docv:"DIR"
        ~doc:
          "Record a structured trace and, on exit, spool every telemetry \
           file to $(docv) (created if missing): trace-<lane>.json (Chrome \
           trace-event JSON; join a cluster's lanes with 'lcp trace \
           merge'), profile-<lane>.json with --profile, and \
           slow-<id>-<seq>.json per request over --slow-ms. Without it no \
           telemetry file is written.")

(* Not [Arg.int]: [Obs.Trace.sample] reads a negative rate as "off",
   so "--trace-sample -1" would parse and silently sample nothing. *)
let trace_sample =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ -> Error (`Msg "N must be >= 0 (0 disables sampling)")
    | None -> Error (`Msg (Printf.sprintf "invalid sampling rate %S" s))
  in
  Arg.(
    value
    & opt (conv (parse, Format.pp_print_int)) 0
    & info [ "trace-sample" ] ~docv:"N"
        ~doc:
          "Distributed tracing: trace 1 in $(docv) requests. Sampling is \
           head-based and deterministic in the correlation id, so client, \
           router and backend all keep the same requests; a request \
           arriving with a trace context on the wire is always traced. \
           Implies tracing is on. 0 (the default) disables sampling.")

let profile =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Continuous profiling: sample every domain's active-span stack \
           97 times per second and track GC/runtime telemetry. Fetch the \
           live profile with 'lcp profile fetch'; with --obs-dir it also \
           spools on exit.")

(* The group serve, route and loadgen take whole. *)
let term =
  Term.(
    const (fun dir trace_sample profile ->
        { Obs.off with dir; trace_sample; profile })
    $ obs_dir $ trace_sample $ profile)
