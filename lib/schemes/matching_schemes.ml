(** Matching verification across the hierarchy (Section 2.3,
    Table 1(b)):

    - maximal matching ∈ LCP(0);
    - maximum matching in bipartite graphs ∈ LCP(1), via a König
      minimum vertex cover;
    - maximum-weight matching in bipartite graphs ∈ LCP(O(log W)), via
      LP-duality (complementary slackness is locally checkable);
    - maximum matching on cycles ∈ Θ(log n): a spanning tree rooted at
      the (unique, if any) unmatched node.

    Matchings are edge labels: bit 0 of an edge label flags membership.
    For the weighted scheme the edge label carries the weight after
    the flag. *)

let flagged view u w =
  let l = View.edge_label_of view u w in
  Bits.length l >= 1 && Bits.get l 0

let matched_neighbours view v =
  List.filter (flagged view v) (View.neighbours view v)

(* --- maximal matching: LCP(0), radius 2. --- *)

let maximal =
  Scheme.make ~name:"maximal-matching" ~radius:2
    ~size_bound:(fun _ -> 0)
    ~prover:(fun _ -> Some Proof.empty)
    ~verifier:(fun view ->
      let v = View.centre view in
      match matched_neighbours view v with
      | [] ->
          (* Maximality: every neighbour is matched (otherwise the
             joining edge could be added). Neighbours' matched edges
             are visible at radius 2. *)
          List.for_all
            (fun u -> matched_neighbours view u <> [])
            (View.neighbours view v)
      | [ _ ] -> true
      | _ -> false)

(* --- maximum matching in bipartite graphs: LCP(1). --- *)

let cover_bit view u =
  let b = View.proof_of view u in
  Bits.length b >= 1 && Bits.get b 0

let maximum_bipartite =
  Scheme.make ~name:"maximum-matching-bipartite" ~radius:1
    ~size_bound:(fun _ -> 1)
    ~prover:(fun inst ->
      let g = Instance.graph inst in
      let m = Instance.flagged_edges inst in
      if not (Bipartite.is_bipartite g && Matching.is_matching g m) then None
      else if List.length m <> List.length (Matching.maximum_bipartite g) then None
      else begin
        (* Strong scheme: certify the adversary's matching. König's
           construction from this very matching yields a cover with
           |C| = |M|, each cover node matched, each matched edge with
           exactly one covered endpoint. *)
        let cover = Matching.koenig_cover g m in
        Some
          (Graph.fold_nodes
             (fun v p -> Proof.set p v (Bits.one_bit (List.mem v cover)))
             g Proof.empty)
      end)
    ~verifier:(fun view ->
      let v = View.centre view in
      match matched_neighbours view v with
      | _ :: _ :: _ -> false
      | matched ->
          (* Cover covers every incident edge. *)
          List.for_all
            (fun u -> cover_bit view v || cover_bit view u)
            (View.neighbours view v)
          (* Matched edges have exactly one covered endpoint. *)
          && List.for_all
               (fun u -> cover_bit view v <> cover_bit view u)
               matched
          (* Covered nodes are matched. *)
          && ((not (cover_bit view v)) || matched <> []))

(* --- maximum-weight matching in bipartite graphs: LCP(O(log W)). --- *)

let weighted_edge_label ~in_matching ~weight =
  let buf = Bits.Writer.create () in
  Bits.Writer.bool buf in_matching;
  Bits.Writer.int_gamma buf weight;
  Bits.Writer.contents buf

let weight_of_label l =
  let cur = Bits.Reader.of_bits l in
  let _flag = Bits.Reader.bool cur in
  let w = Bits.Reader.int_gamma cur in
  Bits.Reader.expect_end cur;
  w

(** Build a weighted-matching instance: weights on all edges, flags on
    the matched ones. *)
let weighted_instance g (weights : Weighted_matching.weights) matching =
  Graph.fold_edges
    (fun u v acc ->
      Instance.with_edge_label acc u v
        (weighted_edge_label
           ~in_matching:(List.mem (u, v) matching)
           ~weight:(weights (u, v))))
    g (Instance.of_graph g)

let instance_weights inst (u, v) = weight_of_label (Instance.edge_label inst u v)

let maximum_weight_bipartite =
  Scheme.make ~name:"maximum-weight-matching-bipartite" ~radius:1
    ~size_bound:(fun n -> (4 * Bits.int_width (max 2 n)) + 16)
    ~prover:(fun inst ->
      let g = Instance.graph inst in
      let m = Instance.flagged_edges inst in
      match
        if Bipartite.is_bipartite g then
          Weighted_matching.dual_certificate g (instance_weights inst) m
        else None
      with
      | exception Bits.Reader.Decode_error _ -> None (* an edge has no weight *)
      | None -> None
      | Some dual ->
          Some
            (List.fold_left
               (fun p (v, y) -> Proof.set p v (Bits.encode_int y))
               Proof.empty dual))
    ~verifier:(fun view ->
      let v = View.centre view in
      let y u = Bits.decode_int (View.proof_of view u) in
      let weight u w = weight_of_label (View.edge_label_of view u w) in
      match matched_neighbours view v with
      | _ :: _ :: _ -> false
      | matched ->
          (* Dual feasibility on incident edges. *)
          List.for_all
            (fun u -> y v + y u >= weight v u)
            (View.neighbours view v)
          (* Complementary slackness: tight on the matched edge, and
             zero at unmatched nodes. *)
          && List.for_all (fun u -> y v + y u = weight v u) matched
          && (matched <> [] || y v = 0))

(* --- maximum matching on cycles: Θ(log n). --- *)

let maximum_on_cycle =
  Scheme.make ~name:"maximum-matching-cycle" ~radius:1
    ~size_bound:Tree_cert.size_bound
    ~prover:(fun inst ->
      let g = Instance.graph inst in
      let m = Instance.flagged_edges inst in
      if not (Matching.is_matching g m) then None
      else begin
        let unmatched =
          let covered = Matching.matched_nodes m in
          List.filter (fun v -> not (List.mem v covered)) (Graph.nodes g)
        in
        match unmatched with
        | [] ->
            (* Perfect matching: root anywhere. *)
            let root = List.hd (Graph.nodes g) in
            Some (Tree_cert.proof g ~root)
        | [ u ] ->
            Some (Tree_cert.proof g ~root:u)
        | _ -> None (* more than one unmatched node: not maximum *)
      end)
    ~verifier:(fun view ->
      let v = View.centre view in
      let cert_of = View.decoded Tree_cert.codec view in
      Tree_cert.check_at view ~cert_of
      &&
      match matched_neighbours view v with
      | [] -> Tree_cert.is_root (cert_of v)
      | [ _ ] -> true
      | _ -> false)

