(* Consistent-hash ring over backend indices.

   Every backend owns [vnodes] points on a 56-bit circle (the first 7
   bytes of an MD5, so the placement is stable across processes and
   runs — no seeding, no dependence on word size). A key hashes to a
   point and walks clockwise; [order] returns every backend exactly
   once, in the order the walk first meets them. The router sends a
   key to the first {e usable} backend in that order, which is what
   makes the assignment stable: removing (or ejecting) a backend only
   reroutes the keys whose walk met it first — in expectation 1/n of
   them — and every other key keeps its backend, preserving its
   compiled-verifier cache locality.

   The ring is immutable: liveness is not its concern. Callers filter
   [order] against health state, so "removal" never rebuilds
   anything. *)

type t = { n : int; points : (int * int) array (* (hash, backend), sorted *) }

let hash_point s =
  let d = Digest.string s in
  let v = ref 0 in
  for i = 0 to 6 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v

let create ?(vnodes = 64) n =
  if n < 1 then invalid_arg "Ring.create: need at least one backend";
  if vnodes < 1 then invalid_arg "Ring.create: vnodes must be >= 1";
  let points =
    Array.init (n * vnodes) (fun i ->
        let b = i / vnodes and v = i mod vnodes in
        (hash_point (Printf.sprintf "backend:%d:vnode:%d" b v), b))
  in
  Array.sort compare points;
  { n; points }

let backends t = t.n

(* first point with hash >= h, wrapping past the top of the circle *)
let start_index t h =
  let lo = ref 0 and hi = ref (Array.length t.points) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst t.points.(mid) < h then lo := mid + 1 else hi := mid
  done;
  if !lo = Array.length t.points then 0 else !lo

let order t key =
  let start = start_index t (hash_point key) in
  let len = Array.length t.points in
  let seen = Array.make t.n false in
  let out = ref [] and found = ref 0 and i = ref 0 in
  while !found < t.n && !i < len do
    let _, b = t.points.((start + !i) mod len) in
    if not seen.(b) then begin
      seen.(b) <- true;
      out := b :: !out;
      incr found
    end;
    incr i
  done;
  List.rev !out

