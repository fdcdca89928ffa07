module IntMap = Map.Make (Int)

module EdgeMap = Map.Make (struct
  type t = int * int

  let compare = compare
end)

(* Two once-cells, at least one filled; a [Lazy.t] would raise
   [Lazy.Undefined] when two domains force it. A record copy shares
   both: they depend on the graph alone, which a copy keeps. *)
type t = {
  graph : Graph.t option Atomic.t;
  rows : Csr.t option Atomic.t;
  node_labels : Bits.t IntMap.t;
  edge_labels : Bits.t EdgeMap.t;
  globals : Bits.t;
  arcs : bool;  (* edge labels are the of_digraph arc bits *)
}

let m_graphs_built = Obs.Metrics.counter "instance.graphs_built"

let once cell build =
  match Atomic.get cell with
  | Some x -> x
  | None ->
      ignore (Atomic.compare_and_set cell None (Some (build ())));
      Option.get (Atomic.get cell)

let make graph rows =
  {
    graph = Atomic.make graph;
    rows = Atomic.make rows;
    node_labels = IntMap.empty;
    edge_labels = EdgeMap.empty;
    globals = Bits.empty;
    arcs = false;
  }

let of_graph g = make (Some g) None
let of_csr c = make None (Some c)
let on_graph i g = { (of_graph g) with globals = i.globals; arcs = i.arcs }

let rec graph i =
  once i.graph (fun () ->
      Obs.Metrics.incr m_graphs_built;
      let offsets, targets, ids = Csr.export (csr i) in
      Graph.of_rows ~ids ~offsets ~targets)

and csr i = once i.rows (fun () -> Csr.of_graph (graph i))

let n i =
  match Atomic.get i.rows with Some c -> Csr.n c | None -> Graph.n (graph i)

let node_label i v = Option.value ~default:Bits.empty (IntMap.find_opt v i.node_labels)

let ekey u v = (min u v, max u v)

let edge_label i u v =
  Option.value ~default:Bits.empty (EdgeMap.find_opt (ekey u v) i.edge_labels)

let globals i = i.globals

let with_node_label i v b =
  if not (Graph.mem_node (graph i) v) then
    invalid_arg "Instance.with_node_label: unknown node";
  { i with node_labels = IntMap.add v b i.node_labels }

let with_node_labels i l =
  List.fold_left (fun i (v, b) -> with_node_label i v b) i l

let with_edge_label i u v b =
  if not (Graph.mem_edge (graph i) u v) then
    invalid_arg "Instance.with_edge_label: not an edge";
  { i with edge_labels = EdgeMap.add (ekey u v) b i.edge_labels }

let with_globals i b = { i with globals = b }

let marked_exactly_one i =
  let marked =
    Graph.fold_nodes
      (fun v acc ->
        let l = node_label i v in
        if Bits.length l >= 1 && Bits.get l 0 then v :: acc else acc)
      (graph i) []
  in
  match marked with [ v ] -> Some v | _ -> None

let flag_edges i flagged =
  let flagged = List.map (fun (u, v) -> ekey u v) flagged in
  List.iter
    (fun (u, v) ->
      if not (Graph.mem_edge (graph i) u v) then
        invalid_arg "Instance.flag_edges: not an edge")
    flagged;
  Graph.fold_edges
    (fun u v acc ->
      with_edge_label acc u v (Bits.one_bit (List.mem (ekey u v) flagged)))
    (graph i) i

let flagged_edges i =
  Graph.fold_edges
    (fun u v acc ->
      let l = edge_label i u v in
      if Bits.length l >= 1 && Bits.get l 0 then ekey u v :: acc else acc)
    (graph i) []
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
  let fresh = of_graph (Graph.relabel (graph i) f) in
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
  { fresh with node_labels; edge_labels; globals = i.globals; arcs = i.arcs }

let union_disjoint i1 i2 =
  if not (Bits.equal i1.globals i2.globals) then
    invalid_arg "Instance.union_disjoint: globals differ";
  {
    (of_graph (Graph.union_disjoint (graph i1) (graph i2))) with
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
  Graph.equal (graph i1) (graph i2)
  && Bits.equal i1.globals i2.globals
  && Graph.fold_nodes
       (fun v acc -> acc && Bits.equal (node_label i1 v) (node_label i2 v))
       (graph i1) true
  && Graph.fold_edges
       (fun u v acc -> acc && Bits.equal (edge_label i1 u v) (edge_label i2 u v))
       (graph i1) true

