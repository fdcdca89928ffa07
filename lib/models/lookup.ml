let fingerprint view =
  let g = View.graph view in
  let buf = Bits.Writer.create () in
  Bits.Writer.int_gamma buf (View.centre view);
  Bits.Writer.int_gamma buf (View.radius view);
  (* the ball graph with identifiers *)
  Bits.Writer.bits buf (Graph_code.encode g);
  (* labels, proofs (length-prefixed), in node order *)
  let field b =
    Bits.Writer.int_gamma buf (Bits.length b);
    Bits.Writer.bits buf b
  in
  Graph.iter_nodes (fun v -> field (View.label_of view v)) g;
  Graph.iter_nodes (fun v -> field (View.proof_of view v)) g;
  Graph.iter_edges (fun u v -> field (View.edge_label_of view u v)) g;
  field (View.globals view);
  Bits.Writer.contents buf

let fingerprint_bits view = Bits.length (fingerprint view)

type table = {
  scheme : Scheme.t;
  cells : (string, bool) Hashtbl.t;
  mutable max_key : int;
}

let tabulate scheme = { scheme; cells = Hashtbl.create 256; max_key = 0 }

let run t inst proof v =
  let view = View.make inst proof ~centre:v ~radius:t.scheme.Scheme.radius in
  let key = Bits.to_string (fingerprint view) in
  t.max_key <- max t.max_key (String.length key);
  match Hashtbl.find_opt t.cells key with
  | Some answer -> answer
  | None ->
      let answer =
        try t.scheme.Scheme.verifier view
        with Bits.Reader.Decode_error _ -> false
      in
      Hashtbl.replace t.cells key answer;
      answer

let decide t inst proof =
  let rejecting =
    Graph.fold_nodes
      (fun v acc -> if run t inst proof v then acc else v :: acc)
      (Instance.graph inst) []
  in
  match rejecting with [] -> Scheme.Accept | vs -> Scheme.Reject (List.rev vs)

let entries t = Hashtbl.length t.cells
