(** Θ(log n): leader election (Section 5.1, Table 1(b)). The marked
    leader is certified unique by a spanning tree rooted at it: the
    tree certificate forces a unique, globally-agreed root, and the
    verifier insists that a node is marked leader iff it is that root.

    Both the {e strong} flavour (the leader mark is part of the input
    and may be any node) and the {e weak} flavour (the prover also
    picks the leader, which therefore travels in the proof rather than
    the input) are provided; the gluing lower bound applies to both
    (Section 7.2). *)

let leader_bit l = Bits.length l >= 1 && Bits.get l 0

let mark_leader inst v =
  Instance.with_node_labels inst
    (List.map
       (fun u -> (u, Bits.one_bit (u = v)))
       (Graph.nodes (Instance.graph inst)))

let strong =
  Scheme.make ~name:"leader-election" ~radius:1 ~size_bound:Tree_cert.size_bound
    ~prover:(fun inst ->
      let g = Instance.graph inst in
      if not (Traversal.is_connected g) then None
      else
        match Instance.marked_exactly_one inst with
        | None -> None
        | Some leader -> Some (Tree_cert.proof g ~root:leader))
    ~verifier:(fun view ->
      let v = View.centre view in
      let cert_of = View.decoded Tree_cert.codec view in
      Tree_cert.check_at view ~cert_of
      && Bool.equal
           (leader_bit (View.label_of view v))
           (Tree_cert.is_root (cert_of v)))

(* Weak flavour: proof = leader bit ++ tree certificate. *)
let weak_codec =
  View.codec @@ fun b ->
  let cur = Bits.Reader.of_bits b in
  let is_leader = Bits.Reader.bool cur in
  let c = Tree_cert.read cur in
  Bits.Reader.expect_end cur;
  (is_leader, c)

let weak =
  Scheme.make ~name:"leader-election-weak" ~radius:1
    ~size_bound:(fun n -> Tree_cert.size_bound n + 1)
    ~prover:(fun inst ->
      (* The prover picks a convenient leader: the smallest id. *)
      let csr = Instance.csr inst in
      Option.map
        (fun b ->
          Proof.of_csr csr
            (Array.init (Csr.n csr) (fun i ->
                 let buf = Bits.Writer.create () in
                 Bits.Writer.bool buf (i = 0);
                 Tree_cert.write buf (Tree_cert.cert csr b i);
                 Bits.Writer.contents buf)))
        (Tree_cert.spanning csr))
    ~verifier:(fun view ->
      let v = View.centre view in
      let weak = View.decoded weak_codec view in
      let cert_of u = snd (weak u) in
      Tree_cert.check_at view ~cert_of
      && Bool.equal (fst (weak v)) (Tree_cert.is_root (cert_of v)))
