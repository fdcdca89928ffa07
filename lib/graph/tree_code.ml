let check_tree g =
  if not (Tree_enum.is_tree g) then invalid_arg "Tree_code: not a tree"

(* Children ordered by (canonical code desc, id asc) — deterministic
   and isomorphism-respecting. *)
let ordered_children g parent v =
  List.filter (fun u -> u <> parent) (Graph.neighbours g v)
  |> List.map (fun c -> (Tree_enum.rooted_code g ~parent:v c, c))
  |> List.sort (fun (c1, v1) (c2, v2) ->
         match String.compare c2 c1 with 0 -> Int.compare v1 v2 | d -> d)
  |> List.map snd

let traversal g ~root =
  check_tree g;
  let rec visit parent v acc = (* pre-order *)
    List.fold_left (fun acc c -> visit v c acc) (v :: acc) (ordered_children g parent v)
  in
  List.rev (visit (-1) root [])

let encode_structure g ~root =
  check_tree g;
  let buf = Bits.Writer.create () in
  let rec visit parent v =
    List.iter
      (fun c ->
        Bits.Writer.bool buf true;
        visit v c;
        Bits.Writer.bool buf false)
      (ordered_children g parent v)
  in
  visit (-1) root;
  Bits.Writer.contents buf

let decode_structure bits =
  let c = Bits.Reader.of_bits bits in
  let g = ref (Graph.add_node Graph.empty 0) in
  let next = ref 1 in
  let rec children parent =
    if Bits.Reader.at_end c then ()
    else if Bits.Reader.bool c then begin
      let id = !next in
      incr next;
      g := Graph.add_edge !g parent id;
      children id;
      children parent
    end
    else () (* '0': close this level; consumed. *)
  in
  children 0;
  { Tree_enum.root = 0; tree = !g }
