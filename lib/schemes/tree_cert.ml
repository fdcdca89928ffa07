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

let prove g ~root =
  let pairs = Traversal.spanning_tree g root in
  let dist = Hashtbl.create 64 in
  List.iter (fun (v, d) -> Hashtbl.replace dist v d) (Traversal.bfs_distances g root);
  (root, { root; dist = 0; parent = None })
  :: List.map
       (fun (v, p) -> (v, { root; dist = Hashtbl.find dist v; parent = Some p }))
       pairs

let prove_tree g ~edges ~root =
  let t = List.fold_left (fun acc (u, v) -> Graph.add_edge acc u v) Graph.empty edges in
  let t = Graph.fold_nodes (fun v acc -> Graph.add_node acc v) g t in
  if
    (not (Graph.mem_node t root))
    || Graph.m t <> Graph.n g - 1
    || (not (Traversal.is_connected t))
    || not (List.for_all (fun (u, v) -> Graph.mem_edge g u v) edges)
  then None
  else begin
    let dist = Hashtbl.create 64 in
    List.iter (fun (v, d) -> Hashtbl.replace dist v d) (Traversal.bfs_distances t root);
    let parents = Traversal.spanning_tree t root in
    Some
      ((root, { root; dist = 0; parent = None })
      :: List.map
           (fun (v, p) -> (v, { root; dist = Hashtbl.find dist v; parent = Some p }))
           parents)
  end

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

