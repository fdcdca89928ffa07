let encode g =
  let buf = Bits.Writer.create () in
  let nodes = Graph.nodes g in
  Bits.Writer.int_gamma buf (List.length nodes);
  (* Identifiers as gamma-coded deltas (sorted, so deltas >= 1 except
     the first which is the id itself). *)
  let _ =
    List.fold_left
      (fun prev v ->
        Bits.Writer.int_gamma buf (v - prev);
        v)
      0 nodes
  in
  let arr = Array.of_list nodes in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Bits.Writer.bool buf (Graph.mem_edge g arr.(i) arr.(j))
    done
  done;
  Bits.Writer.contents buf

let decode bits =
  let c = Bits.Reader.of_bits bits in
  let n = Bits.Reader.int_gamma c in
  (* a zero delta after the first id would repeat an identifier, and
     the matrix would then name a self-loop *)
  let rec read_ids acc prev i =
    if i = n then List.rev acc
    else
      let d = Bits.Reader.int_gamma c in
      if i > 0 && d = 0 then
        raise (Bits.Reader.Decode_error "Graph_code: repeated identifier");
      let v = prev + d in
      read_ids (v :: acc) v (i + 1)
  in
  let ids = read_ids [] 0 0 in
  let arr = Array.of_list ids in
  let g = ref (List.fold_left Graph.add_node Graph.empty ids) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Bits.Reader.bool c then g := Graph.add_edge !g arr.(i) arr.(j)
    done
  done;
  Bits.Reader.expect_end c;
  !g

