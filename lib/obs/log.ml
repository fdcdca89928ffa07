(* Structured logging: one JSON object per line, written to an
   [out_channel] behind a mutex. The writer is deliberately dumb — the
   caller passes a flat field list and this module only does JSON
   escaping, a monotonic timestamp and per-second sampling: at most
   [max_per_sec] lines are written in any one second, the rest are
   counted and surfaced on the next line that does get through, so a
   load spike degrades to a sampled log instead of
   turning the log device into the bottleneck. *)

type field =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type t = {
  lock : Mutex.t;
  oc : out_channel;
  owns_channel : bool;  (* close the fd on [close]? not for stderr *)
  max_per_sec : int;  (* <= 0: unlimited *)
  mutable cur_sec : int;
  mutable written_this_sec : int;
  mutable dropped_pending : int;  (* since the last written line *)
  mutable dropped_since_ns : int;  (* timestamp of the first of those *)
  mutable closed : bool;
}

let of_channel ?(max_per_sec = 0) ~owns_channel oc =
  {
    lock = Mutex.create ();
    oc;
    owns_channel;
    max_per_sec;
    cur_sec = min_int;
    written_this_sec = 0;
    dropped_pending = 0;
    dropped_since_ns = 0;
    closed = false;
  }

let to_stderr ?max_per_sec () = of_channel ?max_per_sec ~owns_channel:false stderr

let to_file ?max_per_sec path =
  of_channel ?max_per_sec ~owns_channel:true (open_out path)

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* A dropped_before marker alone does not say *when* the sampled-away
   window started, which breaks sorting when logs from several
   processes are merged — so the first dropped line's timestamp rides
   along as dropped_since_ns. *)
let render ~ts_ns ~dropped_before ~dropped_since_ns fields =
  let b = Buffer.create 160 in
  Buffer.add_string b (Printf.sprintf "{\"ts_ns\":%d" ts_ns);
  if dropped_before > 0 then
    Buffer.add_string b
      (Printf.sprintf ",\"dropped_before\":%d,\"dropped_since_ns\":%d"
         dropped_before dropped_since_ns);
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ',';
      escape b k;
      Buffer.add_char b ':';
      match v with
      | Int n -> Buffer.add_string b (string_of_int n)
      | Float f ->
          (* JSON has no NaN/Inf; clamp to null *)
          if Float.is_finite f then
            Buffer.add_string b (Printf.sprintf "%.6g" f)
          else Buffer.add_string b "null"
      | Str s -> escape b s
      | Bool v -> Buffer.add_string b (if v then "true" else "false"))
    fields;
  Buffer.add_string b "}\n";
  Buffer.contents b

let write ?now_ns t fields =
  let now_ns = match now_ns with Some n -> n | None -> Clock.now_ns () in
  Mutex.lock t.lock;
  let result =
    if t.closed then false
    else begin
      let sec = now_ns / 1_000_000_000 in
      if sec <> t.cur_sec then begin
        t.cur_sec <- sec;
        t.written_this_sec <- 0
      end;
      if t.max_per_sec > 0 && t.written_this_sec >= t.max_per_sec then begin
        if t.dropped_pending = 0 then t.dropped_since_ns <- now_ns;
        t.dropped_pending <- t.dropped_pending + 1;
        false
      end
      else begin
        t.written_this_sec <- t.written_this_sec + 1;
        let line =
          render ~ts_ns:now_ns ~dropped_before:t.dropped_pending
            ~dropped_since_ns:t.dropped_since_ns fields
        in
        t.dropped_pending <- 0;
        output_string t.oc line;
        flush t.oc;
        true
      end
    end
  in
  Mutex.unlock t.lock;
  result

let close t =
  Mutex.lock t.lock;
  if not t.closed then begin
    t.closed <- true;
    if t.owns_channel then close_out_noerr t.oc else flush t.oc
  end;
  Mutex.unlock t.lock
