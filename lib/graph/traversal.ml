module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)

let bfs_map ?(radius = max_int) g s =
  if not (Graph.mem_node g s) then invalid_arg "Traversal: unknown source";
  let dist = Hashtbl.create 64 in
  Hashtbl.replace dist s 0;
  let q = Queue.create () in
  Queue.push s q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let d = Hashtbl.find dist v in
    if d < radius then
      Graph.iter_neighbours
        (fun u ->
          if not (Hashtbl.mem dist u) then begin
            Hashtbl.replace dist u (d + 1);
            Queue.push u q
          end)
        g v
  done;
  dist

let bfs_distances ?radius g s =
  let dist = bfs_map ?radius g s in
  Hashtbl.fold (fun v d acc -> (v, d) :: acc) dist []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let distance g s t =
  let dist = bfs_map g s in
  Hashtbl.find_opt dist t

let shortest_path g s t =
  if not (Graph.mem_node g s && Graph.mem_node g t) then
    invalid_arg "Traversal.shortest_path: unknown endpoint";
  let parent = Hashtbl.create 64 in
  Hashtbl.replace parent s s;
  let q = Queue.create () in
  Queue.push s q;
  let found = ref (s = t) in
  while (not !found) && not (Queue.is_empty q) do
    let v = Queue.pop q in
    Graph.iter_neighbours
      (fun u ->
        if not (Hashtbl.mem parent u) then begin
          Hashtbl.replace parent u v;
          if u = t then found := true;
          Queue.push u q
        end)
      g v
  done;
  if not (Hashtbl.mem parent t) then None
  else
    let rec walk acc v =
      if v = s then s :: acc else walk (v :: acc) (Hashtbl.find parent v)
    in
    Some (walk [] t)

let ball g v r =
  Hashtbl.fold (fun u _ acc -> u :: acc) (bfs_map ~radius:r g v) [] |> List.sort Int.compare

let component g v = ball g v max_int

let components g =
  let seen = Hashtbl.create 64 in
  Graph.fold_nodes
    (fun v acc ->
      if Hashtbl.mem seen v then acc
      else begin
        let comp = component g v in
        List.iter (fun u -> Hashtbl.replace seen u ()) comp;
        comp :: acc
      end)
    g []
  |> List.rev

let is_connected g = List.length (components g) <= 1

let spanning_tree g root =
  let dist = bfs_map g root in
  (* Parent: any neighbour at distance d-1; pick smallest for determinism. *)
  Hashtbl.fold
    (fun v d acc ->
      if v = root then acc
      else
        let parent =
          List.find
            (fun u -> match Hashtbl.find_opt dist u with
              | Some du -> du = d - 1
              | None -> false)
            (Graph.neighbours g v)
        in
        (v, parent) :: acc)
    dist []
  |> List.sort compare

let dfs_intervals g root =
  if not (Graph.mem_node g root) then invalid_arg "Traversal.dfs_intervals";
  let time = ref 0 in
  let res = ref [] in
  let seen = Hashtbl.create 64 in
  let rec visit v =
    Hashtbl.replace seen v ();
    let disc = !time in
    incr time;
    Graph.iter_neighbours (fun u -> if not (Hashtbl.mem seen u) then visit u) g v;
    res := (v, (disc, !time)) :: !res;
    incr time
  in
  visit root;
  List.sort compare !res

let eccentricity g v =
  let dist = bfs_map g v in
  Hashtbl.fold (fun _ d acc -> max acc d) dist 0

let diameter g =
  if Graph.is_empty g then invalid_arg "Traversal.diameter: empty graph";
  if not (is_connected g) then invalid_arg "Traversal.diameter: disconnected";
  Graph.fold_nodes (fun v acc -> max acc (eccentricity g v)) g 0
