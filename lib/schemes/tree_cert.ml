type t = { root : Graph.node; dist : int; parent : Graph.node option }

let write buf c =
  Bits.Writer.int_gamma buf c.root;
  Bits.Writer.int_gamma buf c.dist;
  match c.parent with
  | None -> Bits.Writer.bool buf false
  | Some p ->
      Bits.Writer.bool buf true;
      Bits.Writer.int_gamma buf p

let read cur =
  let root = Bits.Reader.int_gamma cur in
  let dist = Bits.Reader.int_gamma cur in
  let parent =
    if Bits.Reader.bool cur then Some (Bits.Reader.int_gamma cur) else None
  in
  { root; dist; parent }

let encode c =
  let buf = Bits.Writer.create () in
  write buf c;
  Bits.Writer.contents buf

let decode b =
  let cur = Bits.Reader.of_bits b in
  let c = read cur in
  Bits.Reader.expect_end cur;
  c

let codec = View.codec decode

(* root id + parent id: ids are poly(n), gamma codes cost 2·log+1 each;
   dist <= n. A wide constant absorbs the id-polynomial's degree for
   every construction in this repository (ids up to ~n^4). *)
let size_bound n = (20 * Bits.int_width (max 2 n)) + 24

type bfs = {
  order : int array;
  reached : int;
  dists : int array;
  parents : int array;
  roots : int array;
}

(* Array BFS over dense indices from each root [roots] offers that is
   still unreached. A node's parent is its smallest-index neighbour one
   level closer: each of those scans it while the level above is
   popped, so the first sets the parent and the later ones may lower
   it. *)
let search csr roots =
  let offsets, targets, _ = Csr.export csr in
  let n = Csr.n csr in
  let order = Array.make n 0 and dists = Array.make n (-1) in
  let parents = Array.make n (-1) and root = Array.make n (-1) in
  let head = ref 0 and tail = ref 0 in
  let from r =
    if dists.(r) < 0 then begin
      dists.(r) <- 0;
      root.(r) <- r;
      order.(!tail) <- r;
      incr tail;
      while !head < !tail do
        let v = order.(!head) in
        incr head;
        for k = offsets.(v) to offsets.(v + 1) - 1 do
          let u = targets.(k) in
          if dists.(u) < 0 then begin
            dists.(u) <- dists.(v) + 1;
            parents.(u) <- v;
            root.(u) <- r;
            order.(!tail) <- u;
            incr tail
          end
          else if dists.(u) = dists.(v) + 1 && v < parents.(u) then parents.(u) <- v
        done
      done
    end
  in
  roots from;
  { order; reached = !tail; dists; parents; roots = root }

let bfs csr ~root = search csr (fun from -> from root)
let bfs_forest csr = search csr (fun from -> for r = 0 to Csr.n csr - 1 do from r done)

let spanning csr =
  if Csr.n csr = 0 then None
  else
    let b = bfs csr ~root:0 in
    if b.reached = Csr.n csr then Some b else None

let cert csr b i =
  {
    root = Csr.node csr b.roots.(i);
    dist = b.dists.(i);
    parent = (if b.parents.(i) < 0 then None else Some (Csr.node csr b.parents.(i)));
  }

let prove g ~root =
  let csr = Csr.of_graph g in
  let b = bfs csr ~root:(Csr.index csr root) in
  let at i = (Csr.node csr i, cert csr b i) in
  at b.order.(0)
  :: List.filter_map (fun i -> if b.dists.(i) > 0 then Some (at i) else None)
       (List.init (Csr.n csr) Fun.id)

let proof g ~root =
  List.fold_left (fun p (v, c) -> Proof.set p v (encode c)) Proof.empty (prove g ~root)

let prove_tree g ~edges ~root =
  let t = List.fold_left (fun acc (u, v) -> Graph.add_edge acc u v) Graph.empty edges in
  let t = Graph.fold_nodes (fun v acc -> Graph.add_node acc v) g t in
  if
    (not (Graph.mem_node t root))
    || Graph.m t <> Graph.n g - 1
    || (not (Traversal.is_connected t))
    || not (List.for_all (fun (u, v) -> Graph.mem_edge g u v) edges)
  then None
  else Some (prove t ~root)

let check_at view ~cert_of =
  let v = View.centre view in
  let c = cert_of v in
  let neighbours = View.neighbours view v in
  let agree = List.for_all (fun u -> (cert_of u).root = c.root) neighbours in
  agree
  &&
  if c.dist = 0 then c.root = v && c.parent = None
  else
    match c.parent with
    | None -> false
    | Some p ->
        c.root <> v
        && List.mem p neighbours
        && (cert_of p).dist = c.dist - 1

let is_root c = c.dist = 0

