module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)

type node = int
type t = IntSet.t IntMap.t (* node -> out-neighbours *)

let empty = IntMap.empty
let mem_node g v = IntMap.mem v g

let mem_arc g u v =
  match IntMap.find_opt u g with
  | None -> false
  | Some s -> IntSet.mem v s

let add_node g v =
  if v < 0 then invalid_arg "Digraph.add_node: negative identifier";
  if mem_node g v then g else IntMap.add v IntSet.empty g

let add_arc g u v =
  if u = v then invalid_arg "Digraph.add_arc: self-loop";
  let g = add_node (add_node g u) v in
  IntMap.add u (IntSet.add v (IntMap.find u g)) g

let of_arcs arcs = List.fold_left (fun g (u, v) -> add_arc g u v) empty arcs

let underlying g =
  IntMap.fold
    (fun u s acc -> IntSet.fold (fun v acc -> Graph.add_edge acc u v) s acc)
    g
    (IntMap.fold (fun v _ acc -> Graph.add_node acc v) g Graph.empty)

let reachable g s =
  if not (mem_node g s) then invalid_arg "Digraph.reachable: unknown node";
  let rec go seen = function
    | [] -> seen
    | v :: rest ->
        if IntSet.mem v seen then go seen rest
        else go (IntSet.add v seen) (IntSet.elements (IntMap.find v g) @ rest)
  in
  IntSet.elements (go IntSet.empty [ s ])
