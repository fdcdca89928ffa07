type t = {
  n : int;
  m : int;
  offsets : int array; (* length n + 1 *)
  targets : int array; (* length 2m, dense indices, increasing per row *)
  ids : int array; (* dense index -> identifier, strictly increasing *)
}

let n t = t.n
let m t = t.m
let node t i = t.ids.(i)

(* Identifier -> dense index, -1 when absent. [ids] is strictly
   increasing, so [ids.(v) = v] pins [v] at index [v]: O(1) on the
   graphs every graph6 decode yields (ids 0..n-1). Otherwise (a shard,
   relabelled ids) binary-search; since ids are distinct non-negative
   integers, [v]'s index is at most [v]. *)
let find_in ids n v =
  if v >= 0 && v < n && Array.unsafe_get ids v = v then v
  else
    let rec go lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) lsr 1 in
        let x = Array.unsafe_get ids mid in
        if x = v then mid else if x < v then go (mid + 1) hi else go lo mid
    in
    if v < 0 then -1 else go 0 (min n (v + 1))

let find t v = find_in t.ids t.n v

let index_opt t v =
  let i = find t v in
  if i < 0 then None else Some i

let index t v =
  let i = find t v in
  if i < 0 then invalid_arg (Printf.sprintf "Csr.index: unknown node %d" v)
  else i

let degree t i = t.offsets.(i + 1) - t.offsets.(i)

let of_graph g =
  let n = Graph.n g in
  let ids = Array.make n 0 in
  let next = ref 0 in
  (* Graph.iter_nodes runs in increasing identifier order, so dense
     indices preserve the identifier order. *)
  Graph.iter_nodes
    (fun v ->
      ids.(!next) <- v;
      incr next)
    g;
  let offsets = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    offsets.(i + 1) <- offsets.(i) + Graph.degree g ids.(i)
  done;
  let targets = Array.make offsets.(n) 0 in
  let fill = Array.make n 0 in
  for i = 0 to n - 1 do
    (* neighbours arrive in increasing identifier order; identifier
       order = dense order, so each row ends up sorted. *)
    Graph.iter_neighbours
      (fun u ->
        targets.(offsets.(i) + fill.(i)) <- find_in ids n u;
        fill.(i) <- fill.(i) + 1)
      g ids.(i)
  done;
  { n; m = Graph.m g; offsets; targets; ids }

let iter_neighbours t i f =
  for k = t.offsets.(i) to t.offsets.(i + 1) - 1 do
    f t.targets.(k)
  done

type scratch = {
  dist_ : int array; (* -1 = untouched since last reset *)
  order : int array; (* BFS queue; first [count] entries are the ball *)
  mutable count : int;
}

let scratch t = { dist_ = Array.make t.n (-1); order = Array.make t.n 0; count = 0 }

let scratch_of_capacity cap =
  let cap = max cap 1 in
  { dist_ = Array.make cap (-1); order = Array.make cap 0; count = 0 }

let scratch_capacity s = Array.length s.dist_

let ball t s ~centre ~radius =
  if centre < 0 || centre >= t.n then invalid_arg "Csr.ball: bad centre";
  if radius < 0 then invalid_arg "Csr.ball: negative radius";
  (* lazy reset: only un-mark what the previous call touched *)
  for i = 0 to s.count - 1 do
    s.dist_.(s.order.(i)) <- -1
  done;
  s.order.(0) <- centre;
  s.dist_.(centre) <- 0;
  s.count <- 1;
  let head = ref 0 in
  while !head < s.count do
    let v = s.order.(!head) in
    incr head;
    let d = s.dist_.(v) in
    if d < radius then
      for k = t.offsets.(v) to t.offsets.(v + 1) - 1 do
        let u = t.targets.(k) in
        if s.dist_.(u) < 0 then begin
          s.dist_.(u) <- d + 1;
          s.order.(s.count) <- u;
          s.count <- s.count + 1
        end
      done
  done;
  s.count

let visited s i = s.order.(i)

let node_dist t s v =
  let i = find t v in
  if i < 0 then -1 else s.dist_.(i)

let ball_neighbours t s v =
  let i = index t v in
  (* walk the row backwards so the list comes out increasing *)
  let acc = ref [] in
  for k = t.offsets.(i + 1) - 1 downto t.offsets.(i) do
    let u = t.targets.(k) in
    if s.dist_.(u) >= 0 then acc := t.ids.(u) :: !acc
  done;
  !acc

(* --- induced subgraph extraction (partition shards) ------------------- *)

let extract_subgraph t sel =
  let k = Array.length sel in
  let sorted = Array.copy sel in
  Array.sort Int.compare sorted;
  Array.iteri
    (fun i v ->
      if v < 0 || v >= t.n then
        invalid_arg
          (Printf.sprintf "Csr.extract_subgraph: dense index %d out of range" v);
      if i > 0 && sorted.(i - 1) = v then
        invalid_arg
          (Printf.sprintf "Csr.extract_subgraph: duplicate dense index %d" v))
    sorted;
  let new_of_old = Array.make t.n (-1) in
  Array.iteri (fun i' old -> new_of_old.(old) <- i') sorted;
  let offsets = Array.make (k + 1) 0 in
  for i' = 0 to k - 1 do
    let old = sorted.(i') in
    let d = ref 0 in
    for e = t.offsets.(old) to t.offsets.(old + 1) - 1 do
      if new_of_old.(t.targets.(e)) >= 0 then incr d
    done;
    offsets.(i' + 1) <- offsets.(i') + !d
  done;
  let targets = Array.make offsets.(k) 0 in
  let pos = ref 0 in
  for i' = 0 to k - 1 do
    let old = sorted.(i') in
    (* old rows are sorted by old dense index and [new_of_old] is
       monotone over the kept indices, so new rows stay sorted. *)
    for e = t.offsets.(old) to t.offsets.(old + 1) - 1 do
      let u = new_of_old.(t.targets.(e)) in
      if u >= 0 then begin
        targets.(!pos) <- u;
        incr pos
      end
    done
  done;
  let ids = Array.map (fun old -> t.ids.(old)) sorted in
  ({ n = k; m = Array.length targets / 2; offsets; targets; ids }, sorted)

(* --- raw image access (graph6 decode, disk-cache serialisation) ------ *)

let export t = (t.offsets, t.targets, t.ids)

(* The one constructor for rows from outside the process: every
   invariant [of_graph] establishes is checked, so corrupt bytes yield
   [Error], never a value that crashes [ball] or describes an
   asymmetric graph later. *)
let of_rows ~ids ~offsets ~targets =
  match Graph.check_rows ~ids ~offsets ~targets with
  | Error _ as e -> e
  | Ok () ->
      Ok { n = Array.length ids; m = Array.length targets / 2; offsets; targets; ids }
