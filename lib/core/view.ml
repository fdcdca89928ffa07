type t = {
  centre : Graph.node;
  radius : int;
  inst : Instance.t; (* the whole enclosing instance *)
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
  let sub = Instance.with_globals (Instance.of_graph sub_graph) (Instance.globals inst) in
  let sub =
    Graph.fold_nodes
      (fun v acc ->
        let l = Instance.node_label inst v in
        if Bits.length l > 0 then Instance.with_node_label acc v l else acc)
      sub_graph sub
  in
  Graph.fold_edges
    (fun u v acc ->
      let l = Instance.edge_label inst u v in
      if Bits.length l > 0 then Instance.with_edge_label acc u v l else acc)
    sub_graph sub

let window inst proof ~centre ~radius ~dist ~neighbours =
  {
    centre;
    radius;
    inst;
    proof;
    dist;
    nbrs = neighbours;
    sub = lazy (materialize inst ~centre ~nbrs:neighbours);
  }

let make inst proof ~centre ~radius =
  let g = Instance.graph inst in
  if not (Graph.mem_node g centre) then invalid_arg "View.make: unknown centre";
  if radius < 0 then invalid_arg "View.make: negative radius";
  let dists = Hashtbl.create 32 in
  List.iter
    (fun (u, d) -> if d <= radius then Hashtbl.replace dists u d)
    (Traversal.bfs_distances g centre);
  let dist u = Option.value ~default:(-1) (Hashtbl.find_opt dists u) in
  let neighbours u = List.filter (fun w -> Hashtbl.mem dists w) (Graph.neighbours g u) in
  window inst proof ~centre ~radius ~dist ~neighbours

let in_ball v u = v.dist u >= 0
let centre v = v.centre
let radius v = v.radius
let instance v = Lazy.force v.sub
let graph v = Instance.graph (instance v)
let proof_of v u = if in_ball v u then Proof.get v.proof u else Bits.empty
let label_of v u = if in_ball v u then Instance.node_label v.inst u else Bits.empty

let edge_label_of v a b =
  if in_ball v a && in_ball v b then Instance.edge_label v.inst a b else Bits.empty

let arc_exists v a b = in_ball v a && in_ball v b && Instance.arc_exists v.inst a b
let globals v = Instance.globals v.inst

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
