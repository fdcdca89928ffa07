type colouring = (Graph.node * int) list

let is_proper g colouring =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (v, c) -> Hashtbl.replace tbl v c) colouring;
  Graph.fold_nodes (fun v acc -> acc && Hashtbl.mem tbl v) g true
  && Graph.fold_edges
       (fun u v acc -> acc && Hashtbl.find tbl u <> Hashtbl.find tbl v)
       g true
  && List.for_all (fun (v, c) -> Graph.mem_node g v && c >= 0) colouring

let k_colouring_with g k ~pre =
  if k < 0 then invalid_arg "Coloring.k_colouring: negative k";
  let order =
    Graph.nodes g
    |> List.sort (fun a b -> compare (Graph.degree g b) (Graph.degree g a))
    |> Array.of_list
  in
  let colour = Hashtbl.create 64 in
  List.iter
    (fun (v, c) ->
      if c < 0 || c >= k then invalid_arg "Coloring.k_colouring_with: bad colour";
      Hashtbl.replace colour v c)
    pre;
  let conflict v c =
    List.exists (fun u -> Hashtbl.find_opt colour u = Some c) (Graph.neighbours g v)
  in
  (* Check the preassignment itself. *)
  let pre_ok =
    List.for_all
      (fun (v, c) ->
        List.for_all
          (fun u -> Hashtbl.find_opt colour u <> Some c)
          (Graph.neighbours g v))
      pre
  in
  (* Colours no preassigned node holds are interchangeable, so the
     search opens them in order: a node takes a preassigned colour, a
     fresh colour already opened, or the next unopened one — never a
     later one, whose branch is the one just refuted under another
     name. Refuting K_(k+1) then costs about k^2 steps, not k!, and the
     first colouring found is the one the unpruned search finds. *)
  let fresh_rank = Array.make k 0 and fresh = ref 0 in
  List.iter (fun (_, c) -> fresh_rank.(c) <- -1) pre;
  for c = 0 to k - 1 do
    if fresh_rank.(c) = 0 then begin
      fresh_rank.(c) <- !fresh;
      incr fresh
    end
  done;
  if not pre_ok then None
  else begin
    let n = Array.length order in
    (* [opened]: fresh colours in use, always the lowest-ranked ones *)
    let rec go i opened =
      if i = n then true
      else
        let v = order.(i) in
        if Hashtbl.mem colour v then go (i + 1) opened
        else
          let rec try_colour c =
            if c = k then false
            else
              let rank = fresh_rank.(c) in
              if rank > opened || conflict v c then try_colour (c + 1)
              else begin
                Hashtbl.replace colour v c;
                if go (i + 1) (if rank = opened then opened + 1 else opened)
                then true
                else begin
                  Hashtbl.remove colour v;
                  try_colour (c + 1)
                end
              end
          in
          try_colour 0
    in
    if go 0 0 then
      Some (Graph.nodes g |> List.map (fun v -> (v, Hashtbl.find colour v)))
    else None
  end

let k_colouring g k = k_colouring_with g k ~pre:[]
let is_k_colourable g k = k_colouring g k <> None

let greedy g =
  let order =
    Graph.nodes g
    |> List.sort (fun a b -> compare (Graph.degree g b) (Graph.degree g a))
  in
  let colour = Hashtbl.create 64 in
  List.iter
    (fun v ->
      let used =
        List.filter_map (fun u -> Hashtbl.find_opt colour u) (Graph.neighbours g v)
      in
      let rec first c = if List.mem c used then first (c + 1) else c in
      Hashtbl.replace colour v (first 0))
    order;
  Graph.nodes g |> List.map (fun v -> (v, Hashtbl.find colour v))

let chromatic_number g =
  if Graph.is_empty g then 0
  else begin
    let upper =
      1 + List.fold_left (fun acc (_, c) -> max acc c) 0 (greedy g)
    in
    let rec search k = if is_k_colourable g k then k else search (k + 1) in
    let lower = if Graph.m g > 0 then 2 else 1 in
    min upper (search lower)
  end
