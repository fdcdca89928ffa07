type rooted = { root : Graph.node; tree : Graph.t }

let is_tree g =
  (not (Graph.is_empty g)) && Traversal.is_connected g && Graph.m g = Graph.n g - 1

(* Canonical code: "(" codes-of-children-sorted ")". Children come in
   non-increasing code order, matching the order used by the shape
   generator below. *)
let rec rooted_code g ~parent v =
  let sub =
    List.filter (fun u -> u <> parent) (Graph.neighbours g v)
    |> List.map (fun u -> rooted_code g ~parent:v u)
    |> List.sort (fun a b -> String.compare b a)
  in
  "(" ^ String.concat "" sub ^ ")"

let canonical_code g root =
  if not (is_tree g) then invalid_arg "Tree_enum.canonical_code: not a tree";
  rooted_code g ~parent:(-1) root

(* The middle one or two nodes of a longest path: every automorphism
   fixes this centre (as a set). *)
let centre g =
  let farthest v =
    List.fold_left
      (fun (bv, bd) (u, d) -> if d > bd then (u, d) else (bv, bd))
      (v, 0)
      (Traversal.bfs_distances g v)
    |> fst
  in
  let a = farthest (List.hd (Graph.nodes g)) in
  match Traversal.shortest_path g a (farthest a) with
  | None -> assert false (* a tree is connected *)
  | Some path ->
      let path = Array.of_list path in
      let l = Array.length path in
      if l mod 2 = 1 then [ path.(l / 2) ]
      else [ path.((l / 2) - 1); path.(l / 2) ]

let has_fixpoint_free_symmetry g =
  if not (is_tree g) then
    invalid_arg "Tree_enum.has_fixpoint_free_symmetry: not a tree";
  match centre g with
  | [ a; b ] ->
      String.equal (rooted_code g ~parent:b a) (rooted_code g ~parent:a b)
  | _ -> false

(* Abstract rooted trees as lists of children, generated in canonical
   (sorted) order so each isomorphism class appears once. *)
type shape = Node of shape list

let rec shape_code (Node children) =
  "(" ^ String.concat "" (List.map shape_code children) ^ ")"

(* All shapes with k nodes. Children are kept in non-increasing code
   order; we generate forests of total size k-1 with that invariant. *)
let rec shapes k =
  if k < 1 then []
  else if k = 1 then [ Node [] ]
  else
    (* forest of size k-1 where each tree's code <= bound (max allowed
       code for the next tree, to keep non-increasing order). *)
    let rec forests size bound =
      if size = 0 then [ [] ]
      else
        List.concat_map
          (fun t_size ->
            List.concat_map
              (fun t ->
                let c = shape_code t in
                if compare c bound <= 0 then
                  List.map (fun rest -> t :: rest) (forests (size - t_size) c)
                else [])
              (shapes t_size))
          (List.init size (fun i -> i + 1))
    in
    List.map (fun f -> Node f) (forests (k - 1) "\xff")

let shape_to_graph shape =
  let next = ref 0 in
  let g = ref Graph.empty in
  let rec build parent (Node children) =
    let id = !next in
    incr next;
    g := Graph.add_node !g id;
    (match parent with Some p -> g := Graph.add_edge !g p id | None -> ());
    List.iter (build (Some id)) children
  in
  build None shape;
  { root = 0; tree = !g }

let rooted_trees k =
  if k < 1 then invalid_arg "Tree_enum.rooted_trees: need k >= 1";
  List.map shape_to_graph (shapes k)

let count_rooted_trees k = List.length (shapes k)
