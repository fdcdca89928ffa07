(** The universal Θ(n)-bit scheme on trees (Section 6.2): every node of
    a tree G receives the balanced-parentheses structure code of G
    (2(n-1) bits) plus its own position in the canonical traversal
    (Θ(log n) bits).

    Each node checks that neighbours share the structure, that its
    neighbours' claimed positions are exactly (and distinctly) the
    neighbours of its own position in the decoded tree, and that the
    property holds of the decoded tree. Acceptance everywhere makes the
    position map a locally bijective homomorphism G → T; a connected
    cover of a tree is the tree itself, so G ≅ T.

    Instance property: fixpoint-free symmetry on trees, which Section
    6.2 proves needs Θ(n) bits. *)

let encode_node structure pos =
  let buf = Bits.Writer.create () in
  Bits.Writer.int_gamma buf (Bits.length structure);
  Bits.Writer.bits buf structure;
  Bits.Writer.int_gamma buf pos;
  Bits.Writer.contents buf

let decode_node b =
  let cur = Bits.Reader.of_bits b in
  let len = Bits.Reader.int_gamma cur in
  if len > Bits.Reader.remaining cur then
    raise (Bits.Reader.Decode_error "structure length overruns proof");
  let structure =
    Bits.of_bools (List.init len (fun _ -> Bits.Reader.bool cur))
  in
  let pos = Bits.Reader.int_gamma cur in
  Bits.Reader.expect_end cur;
  (structure, pos)

let scheme ~name (predicate : Tree_enum.rooted -> bool) =
  Scheme.make ~name ~radius:1
    ~size_bound:(fun n -> (2 * n) + (8 * Bits.int_width (max 2 n)) + 8)
    ~prover:(fun inst ->
      let g = Instance.graph inst in
      if not (Tree_enum.is_tree g) then None
      else begin
        let root = List.hd (Graph.nodes g) in
        let canonical = Tree_code.decode_structure (Tree_code.encode_structure g ~root) in
        if not (predicate canonical) then None
        else begin
          let structure = Tree_code.encode_structure g ~root in
          let order = Tree_code.traversal g ~root in
          Some
            (List.fold_left
               (fun (p, pos) v -> (Proof.set p v (encode_node structure pos), pos + 1))
               (Proof.empty, 0) order
            |> fst)
        end
      end)
    ~verifier:(fun view ->
      let v = View.centre view in
      let structure, pos = decode_node (View.proof_of view v) in
      let neighbours = View.neighbours view v in
      List.for_all
        (fun u -> Bits.equal (fst (decode_node (View.proof_of view u))) structure)
        neighbours
      &&
      let t = Tree_code.decode_structure structure in
      let tg = t.Tree_enum.tree in
      Graph.mem_node tg pos
      &&
      let claimed = List.map (fun u -> snd (decode_node (View.proof_of view u))) neighbours in
      let sorted = List.sort Int.compare claimed in
      (* sort_uniq = sort iff the claimed positions are distinct. *)
      List.sort_uniq Int.compare claimed = sorted
      && sorted = Graph.neighbours tg pos
      && predicate t)

let fixpoint_free_symmetry =
  scheme ~name:"tree-fixpoint-free-symmetry" (fun t ->
      Tree_enum.has_fixpoint_free_symmetry t.Tree_enum.tree)

