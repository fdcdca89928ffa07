(* A decoding plane: the identity of one sweep (or of one [make] view)
   and its node -> dense index map. A codec's cells are keyed by dense
   index and tagged with the stamp that wrote them, so a cell answers
   only reads under the same stamp: the same proof over the same
   graph. *)
type plane = { stamp : int; index : Graph.node -> int }

let stamps = Atomic.make 1
let plane index = { stamp = Atomic.fetch_and_add stamps 1; index }

type t = {
  plane : plane;
  centre : Graph.node;
  radius : int;
  labels : Instance.t; (* where labels and globals are read: the whole instance *)
  proof : Proof.t; (* the whole proof *)
  dist : Graph.node -> int; (* -1 outside the ball *)
  nbrs : Graph.node -> Graph.node list; (* ball node's in-ball neighbours *)
  sub : Instance.t Lazy.t; (* instance restricted to the ball, on demand *)
}

(* The ball is what a walk over in-ball neighbours reaches from the
   centre; the graph built along the way is exactly G[v,r]. *)
let materialize inst ~centre ~nbrs =
  let seen = Hashtbl.create 16 in
  let rec visit g u =
    if Hashtbl.mem seen u then g
    else begin
      Hashtbl.replace seen u ();
      let ns = nbrs u in
      List.fold_left visit
        (List.fold_left (fun g w -> Graph.add_edge g u w) (Graph.add_node g u) ns)
        ns
    end
  in
  let sub_graph = visit Graph.empty centre in
  let sub =
    Graph.fold_nodes
      (fun v acc ->
        let l = Instance.node_label inst v in
        if Bits.length l > 0 then Instance.with_node_label acc v l else acc)
      sub_graph
      (Instance.on_graph inst sub_graph)
  in
  Graph.fold_edges
    (fun u v acc ->
      let l = Instance.edge_label inst u v in
      if Bits.length l > 0 then Instance.with_edge_label acc u v l else acc)
    sub_graph sub

let window labels proof ~plane ~centre ~radius ~dist ~neighbours =
  {
    plane;
    centre;
    radius;
    labels;
    proof;
    dist;
    nbrs = neighbours;
    sub = lazy (materialize labels ~centre ~nbrs:neighbours);
  }

let make inst proof ~centre ~radius =
  let g = Instance.graph inst in
  if not (Graph.mem_node g centre) then invalid_arg "View.make: unknown centre";
  if radius < 0 then invalid_arg "View.make: negative radius";
  (* ball node -> (distance, position in id order); the position is
     the view's own dense index, under a stamp no other view shares *)
  let dists = Hashtbl.create 32 in
  List.iter
    (fun (u, d) -> Hashtbl.replace dists u (d, Hashtbl.length dists))
    (Traversal.bfs_distances ~radius g centre);
  let dist u = match Hashtbl.find_opt dists u with Some (d, _) -> d | None -> -1 in
  let neighbours u = List.filter (fun w -> Hashtbl.mem dists w) (Graph.neighbours g u) in
  let plane = plane (fun u -> snd (Hashtbl.find dists u)) in
  window inst proof ~plane ~centre ~radius ~dist ~neighbours

let in_ball v u = v.dist u >= 0
let centre v = v.centre
let radius v = v.radius
let instance v = Lazy.force v.sub
let graph v = Instance.graph (instance v)
let proof_of v u = if in_ball v u then Proof.get v.proof u else Bits.empty

(* --- decoded certificates ---------------------------------------------- *)

(* One immutable (stamp, value) pair per cell, replaced by a single
   store: a reader sees an old pair or a new one, never half of each,
   so systhreads sharing a domain's storage stay correct (at worst one
   evicts the other's cell and it decodes again). Each domain owns its
   storage, so [Pool] workers never share a cell. *)
type 'a cell = Empty | Cell of int * 'a
type 'a codec = { decode : Bits.t -> 'a; cells : 'a cell array Domain.DLS.key }

let codec decode = { decode; cells = Domain.DLS.new_key (fun () -> [||]) }

let storage c i =
  let a = Domain.DLS.get c.cells in
  if i < Array.length a then a
  else begin
    let a' = Array.make (max (i + 1) (2 * Array.length a)) Empty in
    Array.blit a 0 a' 0 (Array.length a);
    Domain.DLS.set c.cells a';
    a'
  end

let decoded c v u =
  if not (in_ball v u) then c.decode Bits.empty
  else
    let i = v.plane.index u in
    let a = storage c i in
    match a.(i) with
    | Cell (s, x) when s = v.plane.stamp -> x
    | _ ->
        (* a decode that raises stores nothing *)
        let x = c.decode (Proof.get v.proof u) in
        a.(i) <- Cell (v.plane.stamp, x);
        x

let label_of v u = if in_ball v u then Instance.node_label v.labels u else Bits.empty

let edge_label_of v a b =
  if in_ball v a && in_ball v b then Instance.edge_label v.labels a b else Bits.empty

let arc_exists v a b = in_ball v a && in_ball v b && Instance.arc_exists v.labels a b
let globals v = Instance.globals v.labels

let neighbours v u =
  if in_ball v u then v.nbrs u
  else invalid_arg (Printf.sprintf "View.neighbours: node %d not in view" u)

let degree_in_view v u =
  if in_ball v u then List.length (v.nbrs u)
  else invalid_arg (Printf.sprintf "View.degree_in_view: node %d not in view" u)

let dist_to_centre v u =
  let d = v.dist u in
  if d >= 0 then d else invalid_arg "View.dist_to_centre: node not in view"

let equal v1 v2 =
  v1.centre = v2.centre && v1.radius = v2.radius
  && Instance.equal (instance v1) (instance v2)
  && Graph.fold_nodes
       (fun u acc -> acc && Bits.equal (proof_of v1 u) (proof_of v2 u))
       (graph v1) true
