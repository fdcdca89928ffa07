(* Sampled variants of three catalog schemes. Each verifier spends its
   query units explicitly and checks a strict subset of the base
   verifier's conditions, so completeness is exact and the only new
   failure mode is an invalid proof slipping past every probe — the
   one-sided error the ε budget covers. A check that does not fit the
   remaining budget is skipped, never force-read: small q degrades
   detection power, not safety. *)

(* 2-colouring spot-check: read the centre's colour bit, then the bits
   of up to [q−1] sampled neighbours, requiring opposition. A missing
   bit is colour 0, as the base verifier reads it. *)
let bipartite =
  Randomized_scheme.make ~base:Bipartite_scheme.scheme ~epsilon:0.02 ~queries:4
    ~probes:24
    ~sampled_verifier:(fun qv ->
      let colour u = Qview.proof_bit qv u 0 = Some true in
      let mine = colour (Qview.centre qv) in
      List.for_all
        (fun u -> colour u <> mine)
        (Qview.sample_neighbours qv (Qview.units_left qv)))

(* KKP certificate spot-check: decode the centre's certificate, check
   its root/distance sanity and its parent edge's flag, then decode up
   to [(q−2)/2] sampled neighbours' certificates and check root
   agreement, parent–distance consistency and flagged-edge membership
   pairwise. *)
let spanning_tree =
  Randomized_scheme.make ~base:Spanning_tree_scheme.scheme ~epsilon:0.02
    ~queries:6 ~probes:24
    ~sampled_verifier:(fun qv ->
      let v = Qview.centre qv in
      let cert u = Tree_cert.decode (Qview.proof_cell qv u) in
      let flagged u =
        let l = Qview.edge_cell qv v u in
        Bits.length l >= 1 && Bits.get l 0
      in
      let c = cert v in
      let own_ok =
        match c.Tree_cert.parent with
        | None -> c.Tree_cert.root = v && c.Tree_cert.dist = 0
        | Some p ->
            c.Tree_cert.dist >= 1
            && List.mem p (Qview.neighbours qv)
            && (Qview.units_left qv < 1 || flagged p)
      in
      own_ok
      &&
      (* two units per sampled neighbour: its certificate + the
         connecting edge's flag *)
      let chosen = Qview.sample_neighbours qv (Qview.units_left qv / 2) in
      List.for_all
        (fun u ->
          let cu = cert u in
          cu.Tree_cert.root = c.Tree_cert.root
          && (cu.Tree_cert.parent <> Some v
             || cu.Tree_cert.dist = c.Tree_cert.dist + 1)
          && (c.Tree_cert.parent <> Some u
             || c.Tree_cert.dist = cu.Tree_cert.dist + 1)
          && ((not (flagged u))
             || c.Tree_cert.parent = Some u
             || cu.Tree_cert.parent = Some v))
        chosen)

(* Cut spot-check (undirected s–t unreachability): read the centre's
   mark and the s/t promise from its own label, then compare against up
   to [q−1] sampled neighbours' marks. *)
let st_unreach =
  Randomized_scheme.make ~base:Reachability.undirected_unreach ~epsilon:0.02
    ~queries:4 ~probes:24
    ~sampled_verifier:(fun qv ->
      let mark u =
        match Qview.proof_bit qv u 0 with Some b -> b | None -> false
      in
      let mine = mark (Qview.centre qv) in
      let l = Qview.my_label qv in
      (if St.is_s_label l then mine else true)
      && (if St.is_t_label l then not mine else true)
      && List.for_all
           (fun u -> mark u = mine)
           (Qview.sample_neighbours qv (Qview.units_left qv)))

let all =
  [
    ("bipartite", bipartite);
    ("spanning-tree", spanning_tree);
    ("st-unreach", st_unreach);
  ]

let find name = List.assoc_opt name all
