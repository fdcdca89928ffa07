module IntMap = Map.Make (Int)

module EdgeMap = Map.Make (struct
  type t = int * int

  let compare = compare
end)

type t = {
  graph : Graph.t;
  node_labels : Bits.t IntMap.t;
  edge_labels : Bits.t EdgeMap.t;
  globals : Bits.t;
  arcs : bool;  (* edge labels are the of_digraph arc bits *)
}

let of_graph graph =
  {
    graph;
    node_labels = IntMap.empty;
    edge_labels = EdgeMap.empty;
    globals = Bits.empty;
    arcs = false;
  }

let on_graph i graph = { (of_graph graph) with globals = i.globals; arcs = i.arcs }
let graph i = i.graph
let n i = Graph.n i.graph
let node_label i v = Option.value ~default:Bits.empty (IntMap.find_opt v i.node_labels)

let ekey u v = (min u v, max u v)

let edge_label i u v =
  Option.value ~default:Bits.empty (EdgeMap.find_opt (ekey u v) i.edge_labels)

let globals i = i.globals

let with_node_label i v b =
  if not (Graph.mem_node i.graph v) then
    invalid_arg "Instance.with_node_label: unknown node";
  { i with node_labels = IntMap.add v b i.node_labels }

let with_node_labels i l =
  List.fold_left (fun i (v, b) -> with_node_label i v b) i l

let with_edge_label i u v b =
  if not (Graph.mem_edge i.graph u v) then
    invalid_arg "Instance.with_edge_label: not an edge";
  { i with edge_labels = EdgeMap.add (ekey u v) b i.edge_labels }

let with_globals i b = { i with globals = b }

let marked_exactly_one i =
  let marked =
    Graph.fold_nodes
      (fun v acc ->
        let l = node_label i v in
        if Bits.length l >= 1 && Bits.get l 0 then v :: acc else acc)
      i.graph []
  in
  match marked with [ v ] -> Some v | _ -> None

let flag_edges i flagged =
  let flagged = List.map (fun (u, v) -> ekey u v) flagged in
  List.iter
    (fun (u, v) ->
      if not (Graph.mem_edge i.graph u v) then
        invalid_arg "Instance.flag_edges: not an edge")
    flagged;
  Graph.fold_edges
    (fun u v acc ->
      with_edge_label acc u v (Bits.one_bit (List.mem (ekey u v) flagged)))
    i.graph i

let flagged_edges i =
  Graph.fold_edges
    (fun u v acc ->
      let l = edge_label i u v in
      if Bits.length l >= 1 && Bits.get l 0 then ekey u v :: acc else acc)
    i.graph []
  |> List.sort compare

let of_digraph d =
  let g = Digraph.underlying d in
  Graph.fold_edges
    (fun u v acc ->
      let b = Bits.of_bools [ Digraph.mem_arc d u v; Digraph.mem_arc d v u ] in
      with_edge_label acc u v b)
    g
    { (of_graph g) with arcs = true }

let arc_exists i u v =
  let l = edge_label i u v in
  if Bits.length l < 2 then false
  else if u < v then Bits.get l 0
  else Bits.get l 1

let relabel i f =
  let graph = Graph.relabel i.graph f in
  let node_labels =
    IntMap.fold (fun v b acc -> IntMap.add (f v) b acc) i.node_labels IntMap.empty
  in
  let edge_labels =
    EdgeMap.fold
      (fun (u, v) b acc ->
        (* The (u<v) normalisation may flip under relabelling; the
           of_digraph encoding must flip its two bits accordingly. Any
           other label (a 2-bit weight label, say) is opaque. *)
        let u' = f u and v' = f v in
        let b =
          if (u < v) = (u' < v') || (not i.arcs) || Bits.length b <> 2 then b
          else Bits.of_bools [ Bits.get b 1; Bits.get b 0 ]
        in
        EdgeMap.add (ekey u' v') b acc)
      i.edge_labels EdgeMap.empty
  in
  { i with graph; node_labels; edge_labels }

let union_disjoint i1 i2 =
  if not (Bits.equal i1.globals i2.globals) then
    invalid_arg "Instance.union_disjoint: globals differ";
  {
    graph = Graph.union_disjoint i1.graph i2.graph;
    node_labels =
      IntMap.union
        (fun _ _ _ -> invalid_arg "Instance.union_disjoint: node overlap")
        i1.node_labels i2.node_labels;
    edge_labels =
      EdgeMap.union
        (fun _ _ _ -> invalid_arg "Instance.union_disjoint: edge overlap")
        i1.edge_labels i2.edge_labels;
    globals = i1.globals;
    arcs = i1.arcs || i2.arcs;
  }

let equal i1 i2 =
  Graph.equal i1.graph i2.graph
  && Bits.equal i1.globals i2.globals
  && Graph.fold_nodes
       (fun v acc -> acc && Bits.equal (node_label i1 v) (node_label i2 v))
       i1.graph true
  && Graph.fold_edges
       (fun u v acc -> acc && Bits.equal (edge_label i1 u v) (edge_label i2 u v))
       i1.graph true

