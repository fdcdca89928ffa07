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

(* One BFS forest, each component rooted at its smallest node. The
   graph is a forest exactly when m = n - (number of components); then
   counts and degree sums add up in reverse BFS order. *)
let prove csr =
  let n = Csr.n csr in
  let b = Tree_cert.bfs_forest csr in
  let components = ref 0 in
  Array.iteri (fun i r -> if r = i then incr components) b.roots;
  if Csr.m csr <> n - !components then None
  else begin
    let count = Array.make n 1 and degree_sum = Array.init n (Csr.degree csr) in
    for k = n - 1 downto 0 do
      let v = b.order.(k) and p = b.parents.(b.order.(k)) in
      if p >= 0 then begin
        count.(p) <- count.(p) + count.(v);
        degree_sum.(p) <- degree_sum.(p) + degree_sum.(v)
      end
    done;
    Some
      (Proof.of_csr csr
         (Array.init n (fun i ->
              let tree = Tree_cert.cert csr b i in
              encode { tree; count = count.(i); degree_sum = degree_sum.(i) })))
  end

let scheme =
  Scheme.make ~name:"acyclic" ~radius:1
    ~size_bound:(fun n -> Tree_cert.size_bound n + (4 * Bits.int_width (max 2 n)) + 4)
    ~prover:(fun inst -> prove (Instance.csr inst))
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
