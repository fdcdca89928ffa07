let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_attrs attrs =
  match attrs with
  | [] -> ""
  | _ ->
      " ["
      ^ String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape v)) attrs)
      ^ "]"

let of_graph ?(name = "G") ?(node_attrs = fun _ -> []) ?(edge_attrs = fun _ _ -> [])
    g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "graph \"%s\" {\n" (escape name));
  Buffer.add_string buf "  node [shape=circle];\n";
  Graph.iter_nodes
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "  %d%s;\n" v (render_attrs (node_attrs v))))
    g;
  Graph.iter_edges
    (fun u v ->
      Buffer.add_string buf
        (Printf.sprintf "  %d -- %d%s;\n" u v (render_attrs (edge_attrs u v))))
    g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

