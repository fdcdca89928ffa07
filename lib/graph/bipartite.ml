(* BFS 2-colouring per component, from each component's smallest node;
   an edge within a BFS level means an odd cycle. *)
let two_colouring g =
  let colour = Hashtbl.create 64 in
  let proper = ref true in
  let run_from s =
    Hashtbl.replace colour s false;
    let q = Queue.create () in
    Queue.push s q;
    while !proper && not (Queue.is_empty q) do
      let v = Queue.pop q in
      let cv = Hashtbl.find colour v in
      Graph.iter_neighbours
        (fun u ->
          match Hashtbl.find_opt colour u with
          | None ->
              Hashtbl.replace colour u (not cv);
              Queue.push u q
          | Some cu -> if cu = cv then proper := false)
        g v
    done
  in
  Graph.iter_nodes (fun v -> if !proper && not (Hashtbl.mem colour v) then run_from v) g;
  if !proper then Some (Hashtbl.find colour) else None

let is_bipartite g = two_colouring g <> None

let sides g =
  match two_colouring g with
  | None -> None
  | Some colour ->
      let a, b =
        Graph.fold_nodes
          (fun v (a, b) -> if colour v then (v :: a, b) else (a, v :: b))
          g ([], [])
      in
      Some (List.rev b, List.rev a)
