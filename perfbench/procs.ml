(* Child processes: `lcp serve` daemons and an `lcp route` frontend,
   each on a kernel-chosen port, gated on a Health reply, and reaped on
   every exit path (normal return, failure, SIGINT/SIGTERM). *)

type proc = {
  role : string;  (** "daemon" or "router" *)
  pid : int;
  port : int;
  log : string option;
}

let live : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let stop p = reap p.pid
let reap_all () = List.iter reap !live

let () =
  at_exit reap_all;
  let on_signal _ =
    reap_all ();
    exit 130
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  (* a daemon that vanishes mid-write must surface as EPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Both banners print "... 127.0.0.1:PORT ..." with the bound port
   first. *)
let banner_port text =
  let key = "127.0.0.1:" in
  let kl = String.length key and tl = String.length text in
  let rec find i =
    if i + kl > tl then None
    else if String.sub text i kl = key then begin
      let j = ref (i + kl) in
      while !j < tl && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub text (i + kl) (!j - i - kl))
    end
    else find (i + 1)
  in
  find 0

let spawn ~lcp ~dir ~role ~name ?log args =
  let out = Filename.concat dir (name ^ ".out") in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let log_args = match log with None -> [] | Some l -> [ "--log"; l ] in
  let argv = Array.of_list ((lcp :: args) @ log_args) in
  let pid = Unix.create_process lcp argv Unix.stdin fd fd in
  Unix.close fd;
  live := pid :: !live;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec port () =
    match banner_port (read_file out) with
    | Some p -> p
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (( <> ) pid) !live;
            failwith (Printf.sprintf "%s exited at start-up: %s" name (read_file out)));
        if Unix.gettimeofday () > deadline then
          failwith (name ^ " printed no port within 30 s");
        Unix.sleepf 0.002;
        port ()
  in
  { role; pid; port = port (); log }

let serve ~lcp ~dir ~name ?log () =
  spawn ~lcp ~dir ~role:"daemon" ~name ?log
    [ "serve"; "--port"; "0"; "--jobs"; "1"; "--cache-size";
      string_of_int Workload.cache_size ]

let route ~lcp ~dir ~name ?log backends =
  spawn ~lcp ~dir ~role:"router" ~name ?log
    ("route" :: "--port" :: "0"
    :: List.concat_map (fun b -> [ "--backend"; Printf.sprintf "127.0.0.1:%d" b.port ]) backends)

(* Ready means a Health reply saying so, not just an open port. *)
let wait_ready p =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    let ready =
      match Client.connect ~port:p.port () with
      | Error _ -> false
      | Ok c ->
          let r = Client.call c Wire.Health in
          Client.close c;
          (match r with Ok (Wire.Health_reply h) -> h.Wire.ready | _ -> false)
    in
    if not ready then begin
      if Unix.gettimeofday () > deadline then
        failwith (Printf.sprintf "%s on port %d never became ready" p.role p.port);
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

(* --- /proc ------------------------------------------------------------- *)

let clk_tck = 100.0

(* utime + stime in microseconds, from /proc/<pid>/stat (fields 14
   and 15, counted after the parenthesised command name). *)
let cpu_us pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  match String.rindex_opt s ')' with
  | None -> 0.0
  | Some i ->
      let fields =
        String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2))
      in
      let f k = float_of_string (List.nth fields k) in
      (f 11 +. f 12) /. clk_tck *. 1e6

(* Host CPU ticks from the first line of /proc/stat: (steal, total).
   Steal is time the hypervisor gave this machine's vCPUs to another
   guest; the run record keeps its share so noisy runs can be told
   apart. *)
let host_ticks () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | line :: _ -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields ->
          let v = List.map float_of_string fields in
          let total = List.fold_left ( +. ) 0.0 (List.filteri (fun i _ -> i < 8) v) in
          ((match List.nth_opt v 7 with Some x -> x | None -> 0.0), total)
      | _ -> (0.0, 0.0))
  | [] -> (0.0, 0.0)

(* VmHWM in MiB from /proc/<pid>/status. *)
let hwm_mb pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
      | _ -> acc)
    0.0 (String.split_on_char '\n' s)
