module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)

type node = int
type t = { adj : IntSet.t IntMap.t; m : int }

let empty = { adj = IntMap.empty; m = 0 }
let is_empty g = IntMap.is_empty g.adj
let mem_node g v = IntMap.mem v g.adj

let mem_edge g u v =
  match IntMap.find_opt u g.adj with
  | None -> false
  | Some s -> IntSet.mem v s

let neighbours g v =
  match IntMap.find_opt v g.adj with
  | None -> invalid_arg (Printf.sprintf "Graph.neighbours: unknown node %d" v)
  | Some s -> IntSet.elements s

let degree g v =
  match IntMap.find_opt v g.adj with
  | None -> invalid_arg (Printf.sprintf "Graph.degree: unknown node %d" v)
  | Some s -> IntSet.cardinal s

let iter_neighbours f g v =
  match IntMap.find_opt v g.adj with
  | None -> invalid_arg (Printf.sprintf "Graph.iter_neighbours: unknown node %d" v)
  | Some s -> IntSet.iter f s

let nodes g = IntMap.fold (fun v _ acc -> v :: acc) g.adj [] |> List.rev
let n g = IntMap.cardinal g.adj
let m g = g.m

let fold_nodes f g init = IntMap.fold (fun v _ acc -> f v acc) g.adj init
let iter_nodes f g = IntMap.iter (fun v _ -> f v) g.adj

let fold_edges f g init =
  IntMap.fold
    (fun u s acc -> IntSet.fold (fun v acc -> if u < v then f u v acc else acc) s acc)
    g.adj init

let iter_edges f g = fold_edges (fun u v () -> f u v) g ()
let edges g = fold_edges (fun u v acc -> (u, v) :: acc) g [] |> List.rev

let max_degree g = fold_nodes (fun v acc -> max acc (degree g v)) g 0
let max_id g = fold_nodes (fun v acc -> max acc v) g 0

let add_node g v =
  if v < 0 then invalid_arg "Graph.add_node: negative identifier";
  if mem_node g v then g else { g with adj = IntMap.add v IntSet.empty g.adj }

let add_edge g u v =
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  let g = add_node (add_node g u) v in
  if mem_edge g u v then g
  else
    let upd w x adj = IntMap.add w (IntSet.add x (IntMap.find w adj)) adj in
    { adj = upd u v (upd v u g.adj); m = g.m + 1 }

let remove_edge g u v =
  if not (mem_edge g u v) then g
  else
    let upd w x adj = IntMap.add w (IntSet.remove x (IntMap.find w adj)) adj in
    { adj = upd u v (upd v u g.adj); m = g.m - 1 }

let remove_node g v =
  if not (mem_node g v) then g
  else
    let g = IntSet.fold (fun u g -> remove_edge g u v) (IntMap.find v g.adj) g in
    { g with adj = IntMap.remove v g.adj }

let create ~nodes ~edges =
  let g = List.fold_left add_node empty nodes in
  List.fold_left
    (fun g (u, v) ->
      if not (mem_node g u && mem_node g v) then
        invalid_arg
          (Printf.sprintf "Graph.create: edge (%d, %d) has unknown endpoint" u v);
      add_edge g u v)
    g edges

let of_edges es =
  List.fold_left (fun g (u, v) -> add_edge g u v) empty es

(* Symmetry is one cursor per row: walking rows in increasing [i], the
   rows that list [j] arrive in the order row [j] lists them, so each
   entry must meet [i] at [j]'s cursor. A row's entries are each
   matched once, so no cursor can end short. *)
let check_rows ~ids ~offsets ~targets =
  let n = Array.length ids in
  let exception Bad of string in
  let bad what = raise (Bad what) in
  try
    if Array.length offsets <> n + 1 || offsets.(0) <> 0
       || offsets.(n) <> Array.length targets
    then bad "offsets do not frame targets";
    for i = 0 to n - 1 do
      if ids.(i) < 0 || (i > 0 && ids.(i) <= ids.(i - 1)) then
        bad "ids not non-negative and strictly increasing";
      if offsets.(i + 1) < offsets.(i) then bad "offsets decrease"
    done;
    let cursor = Array.sub offsets 0 n in
    for i = 0 to n - 1 do
      for k = offsets.(i) to offsets.(i + 1) - 1 do
        let j = targets.(k) in
        if j < 0 || j >= n || j = i then bad "target out of range or self-loop";
        if k > offsets.(i) && j <= targets.(k - 1) then
          bad "row not strictly increasing";
        let c = cursor.(j) in
        if c >= offsets.(j + 1) || targets.(c) <> i then bad "rows not symmetric";
        cursor.(j) <- c + 1
      done
    done;
    Ok ()
  with Bad what -> Error what

(* After the check, one set per row and one map: no per-edge
   persistent insert. *)
let of_rows ~ids ~offsets ~targets =
  (match check_rows ~ids ~offsets ~targets with
  | Ok () -> ()
  | Error what -> invalid_arg ("Graph.of_rows: " ^ what));
  let row i =
    let rec go k acc =
      if k < offsets.(i) then acc else go (k - 1) (ids.(targets.(k)) :: acc)
    in
    IntSet.of_list (go (offsets.(i + 1) - 1) [])
  in
  let adj = ref IntMap.empty in
  for i = 0 to Array.length ids - 1 do
    adj := IntMap.add ids.(i) (row i) !adj
  done;
  { adj = !adj; m = Array.length targets / 2 }

let induced g vs =
  let keep = IntSet.of_list (List.filter (mem_node g) vs) in
  let adj =
    IntSet.fold
      (fun v acc -> IntMap.add v (IntSet.inter keep (IntMap.find v g.adj)) acc)
      keep IntMap.empty
  in
  let m = IntMap.fold (fun _ s acc -> acc + IntSet.cardinal s) adj 0 / 2 in
  { adj; m }

let relabel g f =
  let adj =
    fold_nodes
      (fun v acc ->
        let v' = f v in
        if v' < 0 then invalid_arg "Graph.relabel: negative identifier";
        if IntMap.mem v' acc then invalid_arg "Graph.relabel: not injective";
        IntMap.add v' (IntSet.map f (IntMap.find v g.adj)) acc)
      g IntMap.empty
  in
  { adj; m = g.m }

let union_disjoint g1 g2 =
  let adj =
    IntMap.union
      (fun v _ _ ->
        invalid_arg (Printf.sprintf "Graph.union_disjoint: shared node %d" v))
      g1.adj g2.adj
  in
  { adj; m = g1.m + g2.m }

let equal g1 g2 = IntMap.equal IntSet.equal g1.adj g2.adj

let pp ppf g =
  Format.fprintf ppf "@[<hov 2>graph{n=%d; m=%d;@ nodes=[%a];@ edges=[%a]}@]"
    (n g) (m g)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";")
       Format.pp_print_int)
    (nodes g)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";")
       (fun ppf (u, v) -> Format.fprintf ppf "%d-%d" u v))
    (edges g)


let line_graph g =
  let es = edges g in
  let assoc = List.mapi (fun i e -> (i, e)) es in
  let share (a, b) (c, d) = a = c || a = d || b = c || b = d in
  let lg =
    List.fold_left
      (fun acc (i, ei) ->
        let acc = add_node acc i in
        List.fold_left
          (fun acc (j, ej) ->
            if i < j && share ei ej then add_edge acc i j else acc)
          acc assoc)
      empty assoc
  in
  (lg, assoc)
