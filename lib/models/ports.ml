(** Port numberings (Angluin), the communication structure of model M2
    (Section 7.1): a node of degree d refers to its neighbours as ports
    1 … d and has no access to globally unique identifiers.

    Our [View] type always carries identifiers, so M2 is modelled
    behaviourally: an M2 verifier is one whose output is invariant
    under re-assignment of the identifiers (ports are derivable from
    ids — port i = i-th smallest neighbour id — so id-invariance is
    the right notion). [invariant_under_relabelling] witnesses this
    property experimentally and is used by the model-separation
    tests. *)

let assignment g =
  (* port i (1-based) at v = i-th smallest neighbour identifier. *)
  fun v i ->
    let ns = Graph.neighbours g v in
    if i < 1 || i > List.length ns then
      invalid_arg (Printf.sprintf "Ports.assignment: port %d out of range" i)
    else List.nth ns (i - 1)

let port_of g v u =
  let rec go i = function
    | [] -> invalid_arg "Ports.port_of: not a neighbour"
    | x :: rest -> if x = u then i else go (i + 1) rest
  in
  go 1 (Graph.neighbours g v)

(** [invariant_under_relabelling st scheme inst proof ~factor] compares
    the per-node verdict vector before and after a random injective
    renaming of the identifiers (labels and proof renamed along). An
    M2-style verifier must give identical vectors; an id-reading
    verifier (e.g. a tree certificate checking "root id = my id")
    generally does not care either — the certificate is renamed too —
    so the interesting {e negative} cases are verifiers that read ids
    without the proof following them, like triangle-freeness in M1
    vs M2 (Section 7.1's example). *)
let invariant_under_relabelling st scheme inst proof ~factor =
  let g = Instance.graph inst in
  let nodes = Graph.nodes g in
  let f = Random_graphs.id_map st ~factor g in
  let inst' = Instance.relabel inst f in
  let proof' =
    List.fold_left
      (fun p (v, b) -> Proof.set p v b)
      Proof.empty
      (List.map (fun (v, b) -> (f v, b)) (Proof.bindings proof))
  in
  let verdict i p =
    List.map (fun v -> Scheme.verifier_output scheme i p v) nodes
  in
  let verdict' i p =
    List.map (fun v -> Scheme.verifier_output scheme i p (f v)) nodes
  in
  verdict inst proof = verdict' inst' proof'

(** Triangle-freeness: locally checkable {e with} identifiers (model
    M1) — a node rejects when two of its neighbours are adjacent — but
    famously not in M2 without proofs: in an anonymous 6-cycle vs two
    3-cycles, ports look identical. This verifier is id-free and
    radius-1; the separation test shows it accepts no-instances when
    the family drops identifiers (simulated by quotienting). *)
let triangle_free_m1 =
  Scheme.make ~name:"triangle-free" ~radius:1
    ~size_bound:(fun _ -> 0)
    ~prover:(fun inst ->
      let g = Instance.graph inst in
      let has_triangle =
        Graph.fold_edges
          (fun u v acc ->
            acc
            || List.exists
                 (fun w -> Graph.mem_edge g u w && Graph.mem_edge g v w)
                 (Graph.nodes g))
          g false
      in
      if has_triangle then None else Some Proof.empty)
    ~verifier:(fun view ->
      let v = View.centre view in
      let ns = View.neighbours view v in
      not
        (List.exists
           (fun a ->
             List.exists
               (fun b -> a < b && Graph.mem_edge (View.graph view) a b)
               ns)
           ns))
