type t = {
  centre : Graph.node;
  radius : int;
  sub : Instance.t; (* instance restricted to the ball *)
  proof : Proof.t;
  dists : (Graph.node, int) Hashtbl.t;
}

(* Shared assembly: [ball] must be the sorted radius-[radius] ball of
   [centre] and [dists] its exact distance table. Both the direct
   extraction below and the CSR fast path in [Simulator] funnel through
   this single constructor, which is what keeps the two paths
   behaviourally identical. *)
let of_ball inst proof ~centre ~radius ~ball ~dists =
  let g = Instance.graph inst in
  let sub_graph = Graph.induced g ball in
  let sub = Instance.of_graph sub_graph in
  let sub = Instance.with_globals sub (Instance.globals inst) in
  let sub =
    List.fold_left
      (fun acc v ->
        let l = Instance.node_label inst v in
        if Bits.length l > 0 then Instance.with_node_label acc v l else acc)
      sub ball
  in
  let sub =
    Graph.fold_edges
      (fun u v acc ->
        let l = Instance.edge_label inst u v in
        if Bits.length l > 0 then Instance.with_edge_label acc u v l else acc)
      sub_graph sub
  in
  { centre; radius; sub; proof = Proof.restrict proof ball; dists }

let make inst proof ~centre ~radius =
  let g = Instance.graph inst in
  if not (Graph.mem_node g centre) then invalid_arg "View.make: unknown centre";
  if radius < 0 then invalid_arg "View.make: negative radius";
  let ball = Traversal.ball g centre radius in
  let dists = Hashtbl.create 32 in
  List.iter
    (fun (u, d) -> if d <= radius then Hashtbl.replace dists u d)
    (Traversal.bfs_distances g centre);
  of_ball inst proof ~centre ~radius ~ball ~dists

let centre v = v.centre
let radius v = v.radius
let graph v = Instance.graph v.sub
let instance v = v.sub
let proof_of v u = Proof.get v.proof u
let label_of v u = Instance.node_label v.sub u
let edge_label_of v a b = Instance.edge_label v.sub a b
let arc_exists v a b = Instance.arc_exists v.sub a b
let globals v = Instance.globals v.sub
let neighbours v u = Graph.neighbours (graph v) u
let degree_in_view v u = Graph.degree (graph v) u

let dist_to_centre v u =
  match Hashtbl.find_opt v.dists u with
  | Some d -> d
  | None -> invalid_arg "View.dist_to_centre: node not in view"


let equal v1 v2 =
  v1.centre = v2.centre && v1.radius = v2.radius
  && Instance.equal v1.sub v2.sub
  && Proof.equal v1.proof v2.proof

