(** Section 6.3 — the fooling-set lower bound for non-3-colourability.

    Yes-instances: G_{A,Ā} for every A ⊆ I×I (never 3-colourable,
    since a colouring would encode a pair in A ∩ Ā = ∅). Two different
    sets A ≠ B have A ∩ B̄ ≠ ∅ or Ā ∩ B ≠ ∅, so one of the spliced
    graphs G_{A,B̄}, G_{B,Ā} is 3-colourable — a no-instance. If the
    proofs of the two yes-instances agree on the wire window W, the
    spliced proof (G_A block from one, G'-block from the other, W
    common) is locally indistinguishable from accepted yes-instances
    everywhere, so the verifier accepts a no-instance.

    Since |I×I| = 2^(2k) sets must map to at most 2^(|W|·bits)
    windows, any scheme with |W|·bits < 2^(2k) window capacity …
    formally o(n²/log n) bits per node … collides. Our experiment
    enumerates all A at k = 1 (16 sets) and reports either the forged
    acceptance or the observed window diversity. *)

type outcome =
  | Fooled of {
      a_set : (int * int) list;
      b_set : (int * int) list;
      instance : Instance.t;
      proof : Proof.t;
      genuinely_no : bool;
    }
  | Resisted of { family_size : int; distinct_windows : int }
  | Prover_failed of (int * int) list

let pp_outcome ppf = function
  | Fooled { instance; genuinely_no; _ } ->
      Format.fprintf ppf
        "FOOLED: accepted %d-node spliced gadget (3-colourable: %b)"
        (Instance.n instance) genuinely_no
  | Resisted { family_size; distinct_windows } ->
      Format.fprintf ppf "resisted: %d/%d windows distinct" distinct_windows
        family_size
  | Prover_failed _ -> Format.fprintf ppf "prover failed"

let complement ~k a_set =
  List.filter (fun p -> not (List.mem p a_set)) (Gadgets.all_pairs k)

let subsets ~k =
  let pairs = Array.of_list (Gadgets.all_pairs k) in
  let np = Array.length pairs in
  List.init (1 lsl np) (fun mask ->
      Array.to_list pairs
      |> List.filteri (fun i _ -> (mask lsr i) land 1 = 1))

let window_signature proof window =
  String.concat "|" (List.map (fun v -> Bits.to_string (Proof.get proof v)) window)

(* Splice: G-block of the first instance, G'-block of the second, the
   (common) window from the first. All three pair graphs share the
   same uniform identifier layout, so per-node inheritance is exact. *)
let splice pg1_proof pg2_proof (target : Gadgets.pair_graph) =
  let left_ids = List.init target.Gadgets.left.Gadgets.size Fun.id in
  let right_ids =
    List.init target.Gadgets.right.Gadgets.size (fun i ->
        target.Gadgets.left.Gadgets.size + i)
  in
  let take src nodes p =
    List.fold_left (fun p v -> Proof.set p v (Proof.get src v)) p nodes
  in
  Proof.empty
  |> take pg1_proof left_ids
  |> take pg1_proof target.Gadgets.wire_window
  |> take pg2_proof right_ids

let attack ?(k = 1) ?(r = 1) ?(sets = None) (scheme : Scheme.t) =
  let families = match sets with Some s -> s | None -> subsets ~k in
  let exception Fail of (int * int) list in
  try
    let entries =
      List.map
        (fun a_set ->
          let pg = Gadgets.pair_graph ~k ~r a_set (complement ~k a_set) in
          let inst = Instance.of_graph pg.Gadgets.combined in
          match scheme.Scheme.prover inst with
          | None -> raise (Fail a_set)
          | Some proof ->
              if not (Scheme.accepts scheme inst proof) then raise (Fail a_set);
              (a_set, pg, proof, window_signature proof pg.Gadgets.wire_window))
        families
    in
    let by_sig = Hashtbl.create 64 in
    let collision =
      List.find_map
        (fun (a_set, pg, proof, s) ->
          match Hashtbl.find_opt by_sig s with
          | Some (a', _, p') -> Some ((a', p'), (a_set, pg, proof))
          | None ->
              Hashtbl.replace by_sig s (a_set, pg, proof);
              None)
        entries
    in
    match collision with
    | None ->
        Resisted
          {
            family_size = List.length families;
            distinct_windows = Hashtbl.length by_sig;
          }
    | Some ((a_set, p_a), (b_set, _, p_b)) ->
        (* Pick the orientation with a non-empty intersection, so the
           spliced instance is genuinely 3-colourable. *)
        let orient =
          if List.exists (fun p -> List.mem p (complement ~k b_set)) a_set then
            `A_with_coB
          else `B_with_coA
        in
        let first_set, second_cert, p1, p2 =
          match orient with
          | `A_with_coB -> (a_set, complement ~k b_set, p_a, p_b)
          | `B_with_coA -> (b_set, complement ~k a_set, p_b, p_a)
        in
        let target = Gadgets.pair_graph ~k ~r first_set second_cert in
        let proof = splice p1 p2 target in
        let instance = Instance.of_graph target.Gadgets.combined in
        let accepted = Scheme.accepts scheme instance proof in
        let genuinely_no = Coloring.is_k_colourable target.Gadgets.combined 3 in
        if accepted then
          Fooled { a_set; b_set; instance; proof; genuinely_no }
        else
          Resisted
            {
              family_size = List.length families;
              distinct_windows = Hashtbl.length by_sig;
            }
  with Fail a -> Prover_failed a
