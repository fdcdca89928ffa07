let shuffle st xs =
  let arr = Array.of_list xs in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let gnp st n p =
  if n < 0 then invalid_arg "Random_graphs.gnp";
  let g = ref (List.fold_left Graph.add_node Graph.empty (List.init n Fun.id)) in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float st 1.0 < p then g := Graph.add_edge !g u v
    done
  done;
  !g

let connected_gnp st n p =
  if n < 1 then invalid_arg "Random_graphs.connected_gnp";
  let g = ref (gnp st n p) in
  let rec patch () =
    match Traversal.components !g with
    | [] | [ _ ] -> ()
    | c1 :: c2 :: _ ->
        let pick c = List.nth c (Random.State.int st (List.length c)) in
        g := Graph.add_edge !g (pick c1) (pick c2);
        patch ()
  in
  patch ();
  !g

let tree st n =
  if n < 1 then invalid_arg "Random_graphs.tree";
  if n = 1 then Graph.add_node Graph.empty 0
  else if n = 2 then Graph.of_edges [ (0, 1) ]
  else begin
    (* Prüfer decoding. *)
    let code = Array.init (n - 2) (fun _ -> Random.State.int st n) in
    let deg = Array.make n 1 in
    Array.iter (fun v -> deg.(v) <- deg.(v) + 1) code;
    let module IS = Set.Make (Int) in
    let leaves = ref IS.empty in
    for v = 0 to n - 1 do
      if deg.(v) = 1 then leaves := IS.add v !leaves
    done;
    let g = ref (List.fold_left Graph.add_node Graph.empty (List.init n Fun.id)) in
    Array.iter
      (fun v ->
        let leaf = IS.min_elt !leaves in
        leaves := IS.remove leaf !leaves;
        g := Graph.add_edge !g leaf v;
        deg.(v) <- deg.(v) - 1;
        if deg.(v) = 1 then leaves := IS.add v !leaves)
      code;
    let a = IS.min_elt !leaves in
    let b = IS.max_elt !leaves in
    Graph.add_edge !g a b
  end

let bipartite st a b p =
  let g =
    ref (List.fold_left Graph.add_node Graph.empty (List.init (a + b) Fun.id))
  in
  for u = 0 to a - 1 do
    for v = a to a + b - 1 do
      if Random.State.float st 1.0 < p then g := Graph.add_edge !g u v
    done
  done;
  !g

let regular_even st n k =
  if n < 3 || k < 1 then invalid_arg "Random_graphs.regular_even";
  let g = ref (List.fold_left Graph.add_node Graph.empty (List.init n Fun.id)) in
  for _ = 1 to k do
    let order = shuffle st (List.init n Fun.id) in
    let arr = Array.of_list order in
    for i = 0 to n - 1 do
      let u = arr.(i) and v = arr.((i + 1) mod n) in
      if u <> v then g := Graph.add_edge !g u v
    done
  done;
  !g

let id_map st ~factor g =
  let nodes = Graph.nodes g in
  let n = List.length nodes in
  if factor < 1 then invalid_arg "Random_graphs.id_map";
  let pool = Array.of_list (shuffle st (List.init (factor * max 1 n) Fun.id)) in
  let mapping = Hashtbl.create 64 in
  List.iteri (fun i v -> Hashtbl.replace mapping v pool.(i)) nodes;
  Hashtbl.find mapping

let permuted_ids st ~factor g = Graph.relabel g (id_map st ~factor g)
