module IntSet = Set.Make (Int)

(* Krausz partition: cover the edges by cliques, each edge in exactly
   one clique, each node in at most two cliques. Backtracking over the
   lexicographically first uncovered edge; candidate cliques are all
   cliques containing that edge (small graphs only). *)
let is_line_graph_krausz g =
  let clique_count = Hashtbl.create 16 in
  Graph.iter_nodes (fun v -> Hashtbl.replace clique_count v 0) g;
  let covered = Hashtbl.create 16 in
  let key u v = (min u v, max u v) in
  let bump v d = Hashtbl.replace clique_count v (Hashtbl.find clique_count v + d) in
  (* All cliques (as sorted lists) that contain edge (u,v), all of whose
     edges are uncovered, and whose nodes have clique_count < 2. *)
  let cliques_through u v =
    let common =
      List.filter
        (fun w ->
          Graph.mem_edge g u w && Graph.mem_edge g v w
          && Hashtbl.find clique_count w < 2)
        (Graph.nodes g)
    in
    (* Grow cliques within [common] (plus u, v). *)
    let rec extend clique candidates acc =
      let acc = clique :: acc in
      match candidates with
      | [] -> acc
      | w :: rest ->
          let acc =
            if
              List.for_all (fun x -> Graph.mem_edge g x w) clique
              && List.for_all
                   (fun x -> not (Hashtbl.mem covered (key x w)))
                   clique
            then extend (w :: clique) rest acc
            else acc
          in
          extend clique rest acc
    in
    extend [ u; v ] common []
    |> List.filter (fun cl -> List.length cl >= 2)
  in
  let uncovered_edge () =
    Graph.fold_edges
      (fun u v acc ->
        match acc with
        | Some _ -> acc
        | None -> if Hashtbl.mem covered (key u v) then None else Some (u, v))
      g None
  in
  let rec solve () =
    match uncovered_edge () with
    | None -> true
    | Some (u, v) ->
        if Hashtbl.find clique_count u >= 2 || Hashtbl.find clique_count v >= 2
        then false
        else
          List.exists
            (fun clique ->
              (* Claim the clique. *)
              let edges_of_clique =
                List.concat_map
                  (fun x ->
                    List.filter_map
                      (fun y -> if x < y then Some (x, y) else None)
                      clique)
                  clique
              in
              List.iter (fun e -> Hashtbl.replace covered e ()) edges_of_clique;
              List.iter (fun x -> bump x 1) clique;
              let ok = solve () in
              if not ok then begin
                List.iter (fun e -> Hashtbl.remove covered e) edges_of_clique;
                List.iter (fun x -> bump x (-1)) clique
              end;
              ok)
            (cliques_through u v)
  in
  solve ()

(* Beineke's nine minimal non-line graphs, as edge lists on nodes
   0 .. n-1: the claw K_{1,3}, the two on five nodes, the six on six.
   The tests derive them again — every connected graph on 4 to 6 nodes
   that fails the Krausz test while all its node-deleted subgraphs pass
   — and check this list against that set up to isomorphism. *)
let forbidden_subgraphs =
  List.map
    (fun (n, edges) -> Graph.create ~nodes:(List.init n Fun.id) ~edges)
    [
      (4, [ (0, 1); (0, 2); (0, 3) ]);
      (5, [ (0, 2); (0, 3); (0, 4); (1, 2); (1, 3); (1, 4); (2, 3) ]);
      ( 5,
        [ (0, 1); (0, 2); (0, 3); (0, 4); (1, 2); (1, 3); (1, 4); (2, 3); (2, 4) ]
      );
      (6, [ (0, 2); (0, 3); (0, 5); (1, 2); (1, 3); (1, 4); (2, 3) ]);
      ( 6,
        [ (0, 1); (0, 2); (0, 5); (1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (3, 4) ]
      );
      ( 6,
        [ (0, 1); (0, 2); (0, 3); (0, 5); (1, 2); (1, 5); (2, 3); (2, 4); (3, 4) ]
      );
      (6, [ (0, 3); (0, 4); (0, 5); (1, 2); (1, 5); (2, 3); (2, 4); (3, 4) ]);
      ( 6,
        [
          (0, 1); (0, 2); (0, 3); (0, 4); (0, 5); (1, 2); (1, 3); (1, 4); (1, 5);
          (2, 5); (3, 4);
        ] );
      ( 6,
        [
          (0, 1); (0, 2); (0, 3); (0, 4); (0, 5); (1, 4); (1, 5); (2, 3); (2, 5);
          (3, 4);
        ] );
    ]

let is_line_graph g =
  not
    (List.exists
       (fun pattern -> Subgraph_iso.contains_induced ~pattern g)
       forbidden_subgraphs)

let of_root_graph g = fst (Graph.line_graph g)
