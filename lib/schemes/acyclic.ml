(** O(log n): acyclicity (Section 5.1 — "spanning trees can be used to
    prove that the graph is acyclic: we simply show that each component
    is a tree"). Each component carries a rooted tree certificate plus
    two aggregated counters — subtree node count and subtree degree
    sum — so the component root can check m = n - 1, i.e. that the
    spanning tree is the whole component. *)

type cert = { tree : Tree_cert.t; count : int; degree_sum : int }

let encode c =
  let buf = Bits.Writer.create () in
  Tree_cert.write buf c.tree;
  Bits.Writer.int_gamma buf c.count;
  Bits.Writer.int_gamma buf c.degree_sum;
  Bits.Writer.contents buf

let codec =
  View.codec @@ fun b ->
  let cur = Bits.Reader.of_bits b in
  let tree = Tree_cert.read cur in
  let count = Bits.Reader.int_gamma cur in
  let degree_sum = Bits.Reader.int_gamma cur in
  Bits.Reader.expect_end cur;
  { tree; count; degree_sum }

let is_yes inst =
  let g = Instance.graph inst in
  List.for_all
    (fun comp -> Graph.m (Graph.induced g comp) = List.length comp - 1)
    (Traversal.components g)

let scheme =
  Scheme.make ~name:"acyclic" ~radius:1
    ~size_bound:(fun n -> Tree_cert.size_bound n + (4 * Bits.int_width (max 2 n)) + 4)
    ~prover:(fun inst ->
      let g = Instance.graph inst in
      if not (is_yes inst) then None
      else
        Some
          (List.fold_left
             (fun proof comp ->
               let root = List.hd comp in
               let certs = Tree_cert.prove g ~root in
               let children = Hashtbl.create 16 in
               List.iter
                 (fun (v, c) ->
                   match c.Tree_cert.parent with
                   | Some p -> Hashtbl.add children p v
                   | None -> ())
                 certs;
               let rec agg v =
                 List.fold_left
                   (fun (cnt, ds) c ->
                     let c1, d1 = agg c in
                     (cnt + c1, ds + d1))
                   (1, Graph.degree g v)
                   (Hashtbl.find_all children v)
               in
               List.fold_left
                 (fun proof (v, tree) ->
                   let count, degree_sum = agg v in
                   Proof.set proof v (encode { tree; count; degree_sum }))
                 proof certs)
             Proof.empty (Traversal.components g)))
    ~verifier:(fun view ->
      let v = View.centre view in
      let cert_of = View.decoded codec view in
      let c = cert_of v in
      Tree_cert.check_at view ~cert_of:(fun u -> (cert_of u).tree)
      &&
      let children =
        List.filter
          (fun u -> (cert_of u).tree.Tree_cert.parent = Some v)
          (View.neighbours view v)
      in
      let sum f = List.fold_left (fun acc u -> acc + f (cert_of u)) 0 children in
      c.count = 1 + sum (fun c -> c.count)
      && c.degree_sum = View.degree_in_view view v + sum (fun c -> c.degree_sum)
      &&
      if Tree_cert.is_root c.tree then c.degree_sum = 2 * (c.count - 1) else true)
