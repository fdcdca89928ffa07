(* Prometheus text exposition (format version 0.0.4) over the repo's
   own telemetry types: one group per metric family — its "# HELP" /
   "# TYPE" preamble, then every sample of it, however the caller's
   calls interleave families — rendered in first-appearance order. Everything
   is rendered from values the caller already holds (server atomics,
   {!Window.stats}, a {!Metrics.snapshot}) — this module never reads
   global state, so the same renderer serves the wire endpoint, the
   HTTP sidecar and the bench export.

   Metric names are sanitised to the Prometheus charset and prefixed
   "lcp_"; counters get the conventional "_total" suffix. Histograms
   from the log₂ registry render as native Prometheus histograms with
   cumulative [le] buckets at the 2^b - 1 bucket edges. *)

type t = {
  families : (string, Buffer.t) Hashtbl.t;  (* name -> preamble + samples *)
  mutable order : Buffer.t list;  (* family groups, newest first *)
}

let create () = { families = Hashtbl.create 32; order = [] }

let contents t =
  let b = Buffer.create 1024 in
  List.iter (Buffer.add_buffer b) (List.rev t.order);
  Buffer.contents b

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

let sanitize name =
  let b = Bytes.of_string name in
  Bytes.iteri (fun i c -> if not (is_name_char c) then Bytes.set b i '_') b;
  let s = Bytes.unsafe_to_string b in
  let s = if s = "" then "_" else s in
  if is_name_char s.[0] && not (s.[0] >= '0' && s.[0] <= '9') then s
  else "_" ^ s

let full_name name = "lcp_" ^ sanitize name

(* HELP text: escape backslash and newline per the format spec. *)
let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let escape_label s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The group of family [name], opened with its preamble on first use. *)
let family t ~name ~help ~kind =
  match Hashtbl.find_opt t.families name with
  | Some b -> b
  | None ->
      let b = Buffer.create 256 in
      Printf.bprintf b "# HELP %s %s\n# TYPE %s %s\n" name (escape_help help)
        name kind;
      Hashtbl.add t.families name b;
      t.order <- b :: t.order;
      b

let labels_string = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label v))
             labels)
      ^ "}"

(* Render floats the way Prometheus expects: integers without a
   fraction, everything else with enough digits. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let sample b ~name ?(labels = []) v =
  Printf.bprintf b "%s%s %s\n" name (labels_string labels) (number v)

let counter t ?(help = "") ?labels name v =
  let base = full_name name in
  let name =
    if String.length base >= 6
       && String.sub base (String.length base - 6) 6 = "_total"
    then base
    else base ^ "_total"
  in
  sample (family t ~name ~help ~kind:"counter") ~name ?labels (float_of_int v)

let gauge t ?(help = "") ?labels name v =
  let name = full_name name in
  sample (family t ~name ~help ~kind:"gauge") ~name ?labels v

let histogram t ?(help = "") name (h : Metrics.hist) =
  let name = full_name name in
  let b = family t ~name ~help ~kind:"histogram" in
  let cum = ref 0 in
  List.iter
    (fun (bucket, n) ->
      cum := !cum + n;
      let le = if bucket <= 0 then 0 else (1 lsl bucket) - 1 in
      sample b ~name:(name ^ "_bucket")
        ~labels:[ ("le", string_of_int le) ]
        (float_of_int !cum))
    h.Metrics.buckets;
  sample b ~name:(name ^ "_bucket")
    ~labels:[ ("le", "+Inf") ]
    (float_of_int h.Metrics.count);
  sample b ~name:(name ^ "_sum") (float_of_int h.Metrics.sum);
  sample b ~name:(name ^ "_count") (float_of_int h.Metrics.count)

(* A {!Window.stats} as a Prometheus summary (quantile-labelled
   samples) plus rate gauges, all labelled with the window length. *)
let window_summary t ?(help = "") name (w : Window.stats) =
  let name = full_name name in
  let b = family t ~name ~help ~kind:"summary" in
  let wl = Printf.sprintf "%ds" w.Window.seconds in
  List.iter
    (fun (q, v) ->
      sample b ~name
        ~labels:[ ("window", wl); ("quantile", q) ]
        (float_of_int v))
    [ ("0.5", w.Window.p50); ("0.95", w.Window.p95); ("0.99", w.Window.p99) ];
  sample b ~name:(name ^ "_sum")
    ~labels:[ ("window", wl) ]
    (float_of_int w.Window.sum);
  sample b ~name:(name ^ "_count")
    ~labels:[ ("window", wl) ]
    (float_of_int w.Window.count)

(* The full cumulative registry: counters as _total, max-gauges as
   gauges, histograms as histograms. *)
let metrics_snapshot t (snap : Metrics.snapshot) =
  List.iter
    (fun (name, v) ->
      match v with
      | Metrics.Count n -> counter t name n
      | Metrics.Max n -> gauge t name (float_of_int n)
      | Metrics.Hist h -> histogram t name h)
    snap

(* --- a minimal sample reader ------------------------------------------ *)

(* Parses one exposition line back into (name, labels, value): enough
   for `lcp top` to scrape itself and for the tests to validate the
   output line-by-line. Comment and blank lines yield [None]. *)
let parse_sample line =
  let n = String.length line in
  if n = 0 || line.[0] = '#' then None
  else
    let i = ref 0 in
    while !i < n && is_name_char line.[!i] do incr i done;
    if !i = 0 then None
    else
      let name = String.sub line 0 !i in
      let labels = ref [] in
      let ok = ref true in
      (if !i < n && line.[!i] = '{' then begin
         incr i;
         let rec pairs () =
           let ks = !i in
           while !i < n && is_name_char line.[!i] do incr i done;
           let k = String.sub line ks (!i - ks) in
           if !i + 1 < n && line.[!i] = '=' && line.[!i + 1] = '"' then begin
             i := !i + 2;
             let b = Buffer.create 8 in
             let rec scan () =
               if !i >= n then ok := false
               else
                 match line.[!i] with
                 | '"' -> incr i
                 | '\\' when !i + 1 < n ->
                     (match line.[!i + 1] with
                     | 'n' -> Buffer.add_char b '\n'
                     | c -> Buffer.add_char b c);
                     i := !i + 2;
                     scan ()
                 | c ->
                     Buffer.add_char b c;
                     incr i;
                     scan ()
             in
             scan ();
             labels := (k, Buffer.contents b) :: !labels;
             if !i < n && line.[!i] = ',' then begin
               incr i;
               pairs ()
             end
             else if !i < n && line.[!i] = '}' then incr i
             else ok := false
           end
           else ok := false
         in
         pairs ()
       end);
      if not !ok then None
      else
        let rest = String.trim (String.sub line !i (n - !i)) in
        let value =
          match rest with
          | "+Inf" -> Some infinity
          | "-Inf" -> Some neg_infinity
          | "NaN" -> Some nan
          | _ -> float_of_string_opt rest
        in
        match value with
        | Some v -> Some (name, List.rev !labels, v)
        | None -> None

let find_sample text ~name ~labels =
  let result = ref None in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         match parse_sample line with
         | Some (n, ls, v)
           when n = name
                && List.for_all
                     (fun (k, want) -> List.assoc_opt k ls = Some want)
                     labels ->
             if !result = None then result := Some v
         | _ -> ());
  !result
