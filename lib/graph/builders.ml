let cycle_of_ids ids =
  match ids with
  | [] | [ _ ] | [ _; _ ] -> invalid_arg "Builders.cycle_of_ids: need >= 3 nodes"
  | first :: _ ->
      let rec close acc = function
        | [ last ] -> (last, first) :: acc
        | a :: (b :: _ as rest) -> close ((a, b) :: acc) rest
        | [] -> acc
      in
      Graph.create ~nodes:ids ~edges:(close [] ids)

let cycle n =
  if n < 3 then invalid_arg "Builders.cycle: need n >= 3";
  cycle_of_ids (List.init n Fun.id)

let path_of_ids ids =
  match ids with
  | [] -> invalid_arg "Builders.path_of_ids: need >= 1 node"
  | _ ->
      let rec link acc = function
        | [] | [ _ ] -> acc
        | a :: (b :: _ as rest) -> link ((a, b) :: acc) rest
      in
      Graph.create ~nodes:ids ~edges:(link [] ids)

let path n =
  if n < 1 then invalid_arg "Builders.path: need n >= 1";
  path_of_ids (List.init n Fun.id)

let complete n =
  let vs = List.init n Fun.id in
  let edges =
    List.concat_map (fun u -> List.filter_map (fun v -> if u < v then Some (u, v) else None) vs) vs
  in
  Graph.create ~nodes:vs ~edges

let star k =
  Graph.create
    ~nodes:(List.init (k + 1) Fun.id)
    ~edges:(List.init k (fun i -> (0, i + 1)))

let grid rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Builders.grid: need positive dims";
  let id r c = (r * cols) + c in
  let nodes = List.init (rows * cols) Fun.id in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (id r c, id r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (id r c, id (r + 1) c) :: !edges
    done
  done;
  Graph.create ~nodes ~edges:!edges

let wheel k =
  if k < 3 then invalid_arg "Builders.wheel: need k >= 3";
  let rim = cycle k in
  let hub = k in
  List.fold_left (fun g v -> Graph.add_edge g hub v) rim (List.init k Fun.id)

