module IntSet = Set.Make (Int)

let is_hamiltonian_cycle g seq =
  match seq with
  | [] | [ _ ] | [ _; _ ] -> false
  | first :: _ ->
      let rec edges_ok = function
        | [ last ] -> Graph.mem_edge g last first
        | a :: (b :: _ as rest) -> Graph.mem_edge g a b && edges_ok rest
        | [] -> false
      in
      List.length seq = Graph.n g
      && List.sort_uniq Int.compare seq = Graph.nodes g
      && edges_ok seq

let hamiltonian_cycle g =
  let n = Graph.n g in
  if n < 3 then None
  else begin
    (* a cycle visits every node, so anchoring it anywhere is enough *)
    let start = List.hd (Graph.nodes g) in
    let exception Found of Graph.node list in
    let rec extend acc seen v depth =
      if depth = n then begin
        if Graph.mem_edge g v start then raise (Found (List.rev acc))
      end
      else
        List.iter
          (fun u ->
            if not (IntSet.mem u seen) then
              extend (u :: acc) (IntSet.add u seen) u (depth + 1))
          (Graph.neighbours g v)
    in
    try
      extend [ start ] (IntSet.singleton start) start 1;
      None
    with Found seq -> Some seq
  end

