(** Section 5.3 — gluing cycles together (Figure 1).

    Given a proof labelling scheme for a cycle property/problem, take
    the yes-instances C(a, b) for a ∈ A = {1..n}, b ∈ B = {n+1..2n};
    colour the edge {a, b} of K_{n,n} with the "signature" c(a, b) —
    all auxiliary information and proof bits within distance 2r+1 of a
    or b; find a monochromatic 4-cycle (a₁, b₁, a₂, b₂) (the k = 2 case
    of Bondy–Simonovits); glue C(a₁,b₁) and C(a₂,b₂) into a 2n-cycle by
    removing the edges {aᵢ, bᵢ} and adding {b₁, a₂} and {b₂, a₁},
    inheriting labels and proofs. Every node's radius-r view in the
    glued cycle equals its view in one of the accepted yes-instances,
    so the verifier accepts — if the glued instance is a no-instance,
    the scheme is unsound.

    For honest Θ(log n) schemes the signatures contain identifiers and
    never collide (the attack reports the diversity); for the
    undersized schemes in [Truncated] they collide immediately. *)

(* Node identifiers of C(a, b), in cyclic order, following the paper:
   a, a+4n, a+6n, …, a+2n·n1, b+2n·n2, …, b+6n, b+4n, b with
   n1 = ⌊n/2⌋ and n2 = ⌈n/2⌉; the edge {a, b} closes the cycle. *)
let cycle_ids ~n ~a ~b =
  let n1 = n / 2 and n2 = (n + 1) / 2 in
  let a_side = a :: List.init (n1 - 1) (fun i -> a + (2 * n * (i + 2))) in
  let b_side = b :: List.init (n2 - 1) (fun i -> b + (2 * n * (i + 2))) in
  a_side @ List.rev b_side

type family = {
  n : int;  (** Cycle length; must be ≥ 6 for disjoint windows. *)
  make : a:Graph.node -> b:Graph.node -> Instance.t;
      (** The labelled yes-instance on the cycle [cycle_ids ~n ~a ~b]. *)
  is_yes : Instance.t -> bool;  (** Ground truth, for reporting. *)
}

(** The signature c(a, b): all labels and proof bits within distance
    2r+1 of a or b along the cycle, in a fixed cyclic order. *)
let signature ~radius inst proof ~a ~b ~ids =
  let arr = Array.of_list ids in
  let n = Array.length arr in
  let window = (2 * radius) + 1 in
  let around centre =
    let idx = ref (-1) in
    Array.iteri (fun i v -> if v = centre then idx := i) arr;
    List.init ((2 * window) + 1) (fun off -> arr.((!idx + off - window + n) mod n))
  in
  let nodes = around a @ around b in
  String.concat "|"
    (List.map
       (fun v ->
         Printf.sprintf "%s;%s"
           (Bits.to_string (Instance.node_label inst v))
           (Bits.to_string (Proof.get proof v)))
       nodes)

type outcome =
  | Fooled of {
      instance : Instance.t;
      proof : Proof.t;
      quad : (int * int) * (int * int);
      genuinely_no : bool;
    }
  | Resisted of { pairs : int; distinct_signatures : int }
  | Prover_failed of int * int

let pp_outcome ppf = function
  | Fooled { instance; genuinely_no; quad = (a1, b1), (a2, b2); _ } ->
      Format.fprintf ppf
        "FOOLED: glued C(%d,%d)+C(%d,%d) -> accepted %d-node instance \
         (genuinely no: %b)"
        a1 b1 a2 b2 (Instance.n instance) genuinely_no
  | Resisted { pairs; distinct_signatures } ->
      Format.fprintf ppf "resisted: %d/%d signatures distinct"
        distinct_signatures pairs
  | Prover_failed (a, b) -> Format.fprintf ppf "prover failed on C(%d,%d)" a b

(* Find a monochromatic rectangle: two rows a₁ < a₂ and two columns
   b₁ < b₂ with equal signatures on all four pairs. *)
let find_rectangle signatures =
  (* signatures : ((a, b) * string) list *)
  let by_sig = Hashtbl.create 64 in
  List.iter (fun ((a, b), s) -> Hashtbl.add by_sig s (a, b)) signatures;
  let colours = Hashtbl.fold (fun s _ acc -> s :: acc) by_sig [] |> List.sort_uniq compare in
  let exception Found of (int * int) * (int * int) in
  try
    List.iter
      (fun s ->
        let pairs = Hashtbl.find_all by_sig s in
        (* Group columns by row. *)
        let rows = Hashtbl.create 16 in
        List.iter (fun (a, b) -> Hashtbl.add rows a b) pairs;
        let row_list =
          Hashtbl.fold (fun a _ acc -> a :: acc) rows [] |> List.sort_uniq compare
        in
        let cols a = List.sort_uniq compare (Hashtbl.find_all rows a) in
        let rec scan = function
          | [] -> ()
          | a1 :: rest ->
              let c1 = cols a1 in
              List.iter
                (fun a2 ->
                  let shared = List.filter (fun b -> List.mem b c1) (cols a2) in
                  match shared with
                  | b1 :: b2 :: _ -> raise (Found ((a1, b1), (a2, b2)))
                  | _ -> ())
                rest;
              scan rest
        in
        scan row_list)
      colours;
    None
  with Found (p, q) -> Some (p, q)

(* General k: a monochromatic 2k-cycle a₁-b₁-a₂-b₂-…-a_k-b_k needs all
   pairs (aᵢ, bᵢ) and (aᵢ₊₁, bᵢ) in the same colour class (indices mod
   k). Backtracking over alternating sequences; class sizes are tiny at
   experiment scale. *)
let find_2k_cycle ~k signatures =
  if k < 2 then invalid_arg "Gluing.find_2k_cycle: k >= 2";
  let by_sig = Hashtbl.create 64 in
  List.iter (fun ((a, b), s) -> Hashtbl.add by_sig s (a, b)) signatures;
  let colours =
    Hashtbl.fold (fun s _ acc -> s :: acc) by_sig [] |> List.sort_uniq compare
  in
  let exception Found of (int * int) list in
  try
    List.iter
      (fun s ->
        let pairs = Hashtbl.find_all by_sig s in
        let mem a b = List.mem (a, b) pairs in
        let as_ = List.sort_uniq compare (List.map fst pairs) in
        let bs = List.sort_uniq compare (List.map snd pairs) in
        (* build the alternating sequence a₁ b₁ a₂ b₂ …; close at the
           end with (a₁, b_k) ∈ class *)
        let rec extend seq i =
          (* seq = [(a_i, b_i); …; (a_1, b_1)] already chosen *)
          if i = k then begin
            match (List.rev seq, seq) with
            | (a1, _) :: _, (_, bk) :: _ when mem a1 bk -> raise (Found (List.rev seq))
            | _ -> ()
          end
          else
            List.iter
              (fun a ->
                if not (List.exists (fun (a', _) -> a' = a) seq) then
                  match seq with
                  | (_, b_prev) :: _ when not (mem a b_prev) -> ()
                  | _ ->
                      List.iter
                        (fun b ->
                          if
                            mem a b
                            && not (List.exists (fun (_, b') -> b' = b) seq)
                          then extend ((a, b) :: seq) (i + 1))
                        bs)
              as_
        in
        extend [] 0)
      colours;
    None
  with Found quad -> Some quad

(** k-fold gluing (the paper's general construction): remove every
    {aᵢ, bᵢ}, add {bᵢ₋₁, aᵢ} with b₀ = b_k; labels, edge labels and
    proofs inherited per node. *)
let glue_many family proofs quads =
  let instances = List.map (fun (a, b) -> ((a, b), family.make ~a ~b)) quads in
  let inst =
    List.fold_left
      (fun acc (_, i) -> Instance.union_disjoint acc i)
      (snd (List.hd instances))
      (List.tl instances)
  in
  let g = Instance.graph inst in
  let g = List.fold_left (fun g (a, b) -> Graph.remove_edge g a b) g quads in
  let arr = Array.of_list quads in
  let kk = Array.length arr in
  let seams =
    List.init kk (fun i ->
        let _, b_prev = arr.((i + kk - 1) mod kk) in
        let a_i, _ = arr.(i) in
        (b_prev, a_i, arr.((i + kk - 1) mod kk)))
  in
  let g = List.fold_left (fun g (u, v, _) -> Graph.add_edge g u v) g seams in
  let rebuilt =
    Graph.fold_nodes
      (fun v acc ->
        let l = Instance.node_label inst v in
        if Bits.length l > 0 then Instance.with_node_label acc v l else acc)
      g
      (Instance.on_graph inst g)
  in
  let seam_label u v =
    List.find_map
      (fun (su, sv, (qa, qb)) ->
        if (min su sv, max su sv) = (min u v, max u v) then
          Some (Instance.edge_label (List.assoc (qa, qb) instances) qa qb)
        else None)
      seams
  in
  let rebuilt =
    Graph.fold_edges
      (fun u v acc ->
        let l =
          match seam_label u v with
          | Some l -> l
          | None -> Instance.edge_label inst u v
        in
        if Bits.length l > 0 then Instance.with_edge_label acc u v l else acc)
      g rebuilt
  in
  let proof =
    List.fold_left
      (fun acc (q, _) -> Proof.union_disjoint acc (List.assoc q proofs))
      Proof.empty instances
  in
  (rebuilt, proof)

type outcome_k =
  | Fooled_k of {
      instance : Instance.t;
      proof : Proof.t;
      cycle : (int * int) list;
      genuinely_no : bool;
    }
  | Resisted_k of { pairs : int; distinct_signatures : int }
  | Prover_failed_k of int * int

(* Prove every C(a, b) with a in 1..rows, b in n+1..n+rows, check the
   proof, and take its signature: the proofs and signatures, last cell
   first (the order the collision searches scan, which picks the
   reported collision), or the first cell the scheme fails on. *)
let prove_grid ~rows (scheme : Scheme.t) family =
  let n = family.n in
  let exception Fail of int * int in
  let cell a b =
    let inst = family.make ~a ~b in
    match scheme.Scheme.prover inst with
    | Some proof when Scheme.accepts scheme inst proof ->
        let ids = cycle_ids ~n ~a ~b in
        let s = signature ~radius:scheme.Scheme.radius inst proof ~a ~b ~ids in
        (((a, b), proof), ((a, b), s))
    | _ -> raise (Fail (a, b))
  in
  match
    List.concat_map
      (fun a -> List.init rows (fun i -> cell a (n + i + 1)))
      (List.init rows (fun i -> i + 1))
  with
  | cells -> Ok (List.split (List.rev cells))
  | exception Fail (a, b) -> Error (a, b)

let distinct signatures =
  List.length (List.sort_uniq compare (List.map snd signatures))

(** The general-k attack: glue [k] compatible n-cycles into a kn-cycle.
    For odd n and even k the glued cycle flips the parity; for leader
    election any k ≥ 2 produces k leaders. With odd k and the odd-n
    property the glued instance is still a yes-instance — the attack
    reports [genuinely_no = false], which is not a soundness
    violation: choosing the parameters is part of the argument. *)
let attack_k ?rows ~k (scheme : Scheme.t) family =
  let rows = min (Option.value ~default:(max (2 * k) 4) rows) family.n in
  match prove_grid ~rows scheme family with
  | Error (a, b) -> Prover_failed_k (a, b)
  | Ok (proofs, signatures) -> (
      let resisted =
        Resisted_k
          { pairs = List.length signatures; distinct_signatures = distinct signatures }
      in
      match find_2k_cycle ~k signatures with
      | None -> resisted
      | Some cycle ->
          let instance, proof = glue_many family proofs cycle in
          if Scheme.accepts scheme instance proof then
            Fooled_k
              { instance; proof; cycle; genuinely_no = not (family.is_yes instance) }
          else resisted)

(** Run the whole attack. [rows] bounds |A| = |B| (default: the full
    {1..n} of the paper — quadratic in instance count, so tests trim
    it). *)
let attack ?rows (scheme : Scheme.t) family =
  match prove_grid ~rows:(Option.value ~default:family.n rows) scheme family with
  | Error (a, b) -> Prover_failed (a, b)
  | Ok (proofs, signatures) -> (
      (* A collision that does not fool the verifier (possible when
         signatures collide for deeper reasons) counts as resistance. *)
      let resisted =
        Resisted
          { pairs = List.length signatures; distinct_signatures = distinct signatures }
      in
      match find_rectangle signatures with
      | None -> resisted
      | Some (((a1, b1), (a2, b2)) as quad) ->
          let instance, proof = glue_many family proofs [ (a1, b1); (a2, b2) ] in
          if Scheme.accepts scheme instance proof then
            Fooled { instance; proof; quad; genuinely_no = not (family.is_yes instance) }
          else resisted)

(* ----- ready-made families ----------------------------------------- *)

(** Odd cycles, no auxiliary labels (lower bounds for "odd n(G)" and
    "chromatic number > 2" with k = 2: two odd cycles glue into an even
    one). *)
let odd_cycles ~n =
  if n mod 2 = 0 || n < 7 then invalid_arg "Gluing.odd_cycles: need odd n >= 7";
  {
    n;
    make =
      (fun ~a ~b -> Instance.of_graph (Builders.cycle_of_ids (cycle_ids ~n ~a ~b)));
    is_yes =
      (fun inst ->
        let g = Instance.graph inst in
        Traversal.is_connected g && Graph.n g mod 2 = 1);
  }

(** Leader election on cycles: the node [a] is marked leader. *)
let leader_cycles ~n =
  if n < 7 then invalid_arg "Gluing.leader_cycles: need n >= 7";
  {
    n;
    make =
      (fun ~a ~b ->
        let ids = cycle_ids ~n ~a ~b in
        let inst = Instance.of_graph (Builders.cycle_of_ids ids) in
        Instance.with_node_labels inst
          (List.map (fun v -> (v, Bits.one_bit (v = a))) ids));
    is_yes =
      (fun inst ->
        Traversal.is_connected (Instance.graph inst)
        && Instance.marked_exactly_one inst <> None);
  }

(** Maximum matching on odd cycles: the matching alternates around the
    cycle leaving exactly node [a] unmatched; the closing edge {a, b}
    is unmatched, so gluing preserves edge labels and yields a
    2n-cycle with two unmatched nodes — not maximum. *)
let matching_cycles ~n =
  if n mod 2 = 0 || n < 7 then invalid_arg "Gluing.matching_cycles: need odd n >= 7";
  {
    n;
    make =
      (fun ~a ~b ->
        let ids = cycle_ids ~n ~a ~b in
        let g = Builders.cycle_of_ids ids in
        (* Pair consecutive nodes starting after [a]: a unmatched. *)
        let arr = Array.of_list ids in
        let rec pairs acc i =
          if i + 1 >= n then acc
          else pairs ((min arr.(i) arr.(i + 1), max arr.(i) arr.(i + 1)) :: acc) (i + 2)
        in
        Instance.flag_edges (Instance.of_graph g) (pairs [] 1));
    is_yes =
      (fun inst ->
        Matching.is_maximum_on_cycle (Instance.graph inst)
          (Instance.flagged_edges inst));
  }
