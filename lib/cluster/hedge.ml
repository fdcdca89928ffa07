(* First-wins cell for hedged requests.

   One cell per routed request: the primary leg is offered first; if
   it has not produced a value within the hedge delay the router
   spawns a second leg against a different backend and both race. The
   first [offer] carrying the request's correlation id wins; every
   later offer — the slower leg, a stale reply, a reply with the wrong
   rid — returns [false] and is discarded by the leg that produced it,
   so one request can never be double-counted no matter how the race
   resolves.

   OCaml's stdlib [Condition] has no timed wait, so the waiter parks
   on a pipe via [Unix.select]: [offer] and the final [fail] write one
   byte; [await] selects with the remaining budget. [dispose] closes
   the pipe under the same mutex the writers take, so a losing leg
   that finishes after the router moved on finds [disposed = true] and
   never touches a closed fd. *)

type 'a outcome = Winner of 'a | All_failed | Timeout

type 'a t = {
  rid : int;
  mu : Mutex.t;
  mutable value : 'a option;
  mutable failures : int;
  mutable legs : int;
  mutable disposed : bool;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
}

let create ~rid ~legs =
  if legs < 1 then invalid_arg "Hedge.create: legs must be >= 1";
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  {
    rid;
    mu = Mutex.create ();
    value = None;
    failures = 0;
    legs;
    disposed = false;
    pipe_r;
    pipe_w;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* call with the mutex held *)
let signal t =
  if not t.disposed then
    try ignore (Unix.write t.pipe_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()

let offer t ~rid v =
  locked t @@ fun () ->
  if t.disposed || rid <> t.rid || Option.is_some t.value then false
  else begin
    t.value <- Some v;
    signal t;
    true
  end

let fail t =
  locked t @@ fun () ->
  t.failures <- t.failures + 1;
  if t.failures >= t.legs && Option.is_none t.value then signal t

let add_leg t = locked t @@ fun () -> t.legs <- t.legs + 1

(* [Some] winner / [All_failed], or [None] while legs are racing. *)
let poll t =
  locked t @@ fun () ->
  match t.value with
  | Some v -> Some (Winner v)
  | None -> if t.failures >= t.legs then Some All_failed else None

let await t ~timeout_ms =
  let deadline =
    if timeout_ms < 0 then infinity
    else Unix.gettimeofday () +. (float_of_int timeout_ms /. 1000.)
  in
  let rec wait () =
    match poll t with
    | Some outcome -> outcome
    | None ->
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then Timeout
        else begin
          (match
             Unix.select [ t.pipe_r ]
               [] []
               (if remaining = infinity then -1.0 else remaining)
           with
          | [], _, _ -> ()
          | _ -> (
              try ignore (Unix.read t.pipe_r (Bytes.create 8) 0 8)
              with Unix.Unix_error _ -> ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          wait ()
        end
  in
  wait ()

let dispose t =
  locked t @@ fun () ->
  if not t.disposed then begin
    t.disposed <- true;
    (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
    try Unix.close t.pipe_w with Unix.Unix_error _ -> ()
  end
