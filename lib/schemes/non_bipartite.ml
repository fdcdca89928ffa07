(** Θ(log n): chromatic number > 2 on connected graphs (Section 5.1).
    The witness is an odd cycle: pick a node of the cycle as the
    leader, certify its uniqueness with a spanning tree, and propagate
    a position counter along the cycle, "starting and ending" at the
    leader. Locally: every cycle node names its successor; positions
    increase by one; predecessor pointers are unique; the closing node
    has even position, so the cycle length is odd.

    Soundness: the successor relation on cycle-marked nodes is
    injective (the predecessor-count check), positions strictly
    increase except into the root, so the functional component of the
    root is a single simple cycle of odd length — an odd closed walk,
    which cannot exist in a bipartite graph. *)

type cert = {
  tree : Tree_cert.t;
  cycle : (int * Graph.node) option; (* (position, successor id) *)
}

let encode c =
  let buf = Bits.Writer.create () in
  Tree_cert.write buf c.tree;
  (match c.cycle with
  | None -> Bits.Writer.bool buf false
  | Some (pos, succ) ->
      Bits.Writer.bool buf true;
      Bits.Writer.int_gamma buf pos;
      Bits.Writer.int_gamma buf succ);
  Bits.Writer.contents buf

let codec =
  View.codec @@ fun b ->
  let cur = Bits.Reader.of_bits b in
  let tree = Tree_cert.read cur in
  let cycle =
    if Bits.Reader.bool cur then begin
      let pos = Bits.Reader.int_gamma cur in
      let succ = Bits.Reader.int_gamma cur in
      Some (pos, succ)
    end
    else None
  in
  Bits.Reader.expect_end cur;
  { tree; cycle }

let scheme =
  Scheme.make ~name:"chromatic-gt-2" ~radius:1
    ~size_bound:(fun n -> Tree_cert.size_bound n + (8 * Bits.int_width (max 2 n)) + 4)
    ~prover:(fun inst ->
      let g = Instance.graph inst in
      if not (Traversal.is_connected g) then None
      else
        match Bipartite.odd_cycle g with
        | None -> None
        | Some cycle ->
            let arr = Array.of_list cycle in
            let len = Array.length arr in
            let leader = arr.(0) in
            let certs = Tree_cert.prove g ~root:leader in
            let cycle_info = Hashtbl.create 16 in
            Array.iteri
              (fun i v -> Hashtbl.replace cycle_info v (i, arr.((i + 1) mod len)))
              arr;
            Some
              (List.fold_left
                 (fun p (v, tree) ->
                   Proof.set p v
                     (encode { tree; cycle = Hashtbl.find_opt cycle_info v }))
                 Proof.empty certs))
    ~verifier:(fun view ->
      let v = View.centre view in
      let cert_of = View.decoded codec view in
      let c = cert_of v in
      let neighbours = View.neighbours view v in
      Tree_cert.check_at view ~cert_of:(fun u -> (cert_of u).tree)
      &&
      let on_cycle u = (cert_of u).cycle <> None in
      let preds =
        List.filter
          (fun u ->
            match (cert_of u).cycle with
            | Some (_, succ) -> succ = v
            | None -> false)
          neighbours
      in
      match c.cycle with
      | None ->
          (* Off-cycle nodes must not be pointed at, and the root must
             be on the cycle. *)
          preds = [] && not (Tree_cert.is_root c.tree)
      | Some (pos, succ) ->
          List.length preds = 1
          && List.mem succ neighbours
          && on_cycle succ
          && (pos = 0) = Tree_cert.is_root c.tree
          && (match (cert_of succ).cycle with
             | Some (spos, _) ->
                 if spos = 0 then pos mod 2 = 0 && pos > 0
                 else spos = pos + 1
             | None -> false))
