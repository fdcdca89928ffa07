let is_automorphism g mapping =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (u, v) -> Hashtbl.replace tbl u v) mapping;
  let nodes = Graph.nodes g in
  List.length mapping = List.length nodes
  && List.for_all (fun v -> Hashtbl.mem tbl v) nodes
  && List.sort_uniq Int.compare (List.map snd mapping) = nodes
  && Graph.fold_edges
       (fun u v acc ->
         acc && Graph.mem_edge g (Hashtbl.find tbl u) (Hashtbl.find tbl v))
       g true
(* A bijection preserving edges on a finite simple graph also preserves
   non-edges (edge counts match), so the edge check suffices. *)

(* The nodes component by component, each in breadth-first layers from
   its smallest node: every node after a component's first has an
   earlier neighbour, so the consistency check prunes a wrong image at
   once. (In identifier order, a cycle whose identifiers are shuffled
   is searched in time exponential in n.) *)
let bfs_order g =
  List.concat_map
    (fun comp ->
      Traversal.bfs_distances g (List.fold_left min max_int comp)
      |> List.stable_sort (fun (_, a) (_, b) -> Int.compare a b)
      |> List.map fst)
    (Traversal.components g)

(* Backtracking over candidate images, pruned by degree and
   consistency with earlier assignments. [stop] decides whether a
   complete assignment ends the search. *)
let search g ~stop =
  let nodes = Array.of_list (Graph.nodes g) in
  let order = Array.of_list (bfs_order g) in
  let n = Array.length nodes in
  let assignment = Hashtbl.create 16 in
  let used = Hashtbl.create 16 in
  let results = ref [] in
  let compatible v w =
    Graph.degree g v = Graph.degree g w
    && Array.for_all
         (fun u ->
           match Hashtbl.find_opt assignment u with
           | None -> true
           | Some x -> Bool.equal (Graph.mem_edge g v u) (Graph.mem_edge g w x))
         nodes
  in
  let exception Stop in
  let rec go i =
    if i = n then begin
      let mapping =
        Array.to_list (Array.map (fun v -> (v, Hashtbl.find assignment v)) nodes)
      in
      results := mapping :: !results;
      if stop mapping then raise Stop
    end
    else
      let v = order.(i) in
      Array.iter
        (fun w ->
          if (not (Hashtbl.mem used w)) && compatible v w then begin
            Hashtbl.replace assignment v w;
            Hashtbl.replace used w ();
            go (i + 1);
            Hashtbl.remove assignment v;
            Hashtbl.remove used w
          end)
        nodes
  in
  (try go 0 with Stop -> ());
  List.rev !results

let count_automorphisms g = List.length (search g ~stop:(fun _ -> false))

let is_identity mapping = List.for_all (fun (u, v) -> u = v) mapping

let nontrivial_automorphism g =
  let found = ref None in
  let stop mapping =
    if is_identity mapping then false
    else begin
      found := Some mapping;
      true
    end
  in
  ignore (search g ~stop);
  !found

let is_symmetric g = nontrivial_automorphism g <> None
let is_asymmetric g = not (is_symmetric g)

let fixpoint_free_automorphism g =
  let found = ref None in
  let stop mapping =
    if List.exists (fun (u, v) -> u = v) mapping then false
    else begin
      found := Some mapping;
      true
    end
  in
  ignore (search g ~stop);
  !found

let has_fixpoint_free_symmetry g = fixpoint_free_automorphism g <> None
