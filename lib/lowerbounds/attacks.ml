(* The undersized/honest pairs of Sections 5.3 and 6, each with the
   attack that separates them. *)

type result = Fooled | Resisted | Prover_failed

type t = {
  name : string;
  section : string;
  undersized : string * Scheme.t;
  honest : string * Scheme.t;
  family : string Lazy.t option;
  run : ?n:int -> Scheme.t -> result * (Format.formatter -> unit);
}

let report pp result o = (result o, fun ppf -> pp ppf o)

let gluing_report =
  report Gluing.pp_outcome (function
    | Gluing.Fooled _ -> Fooled
    | Gluing.Resisted _ -> Resisted
    | Gluing.Prover_failed _ -> Prover_failed)

let symmetry_report =
  report Symmetry_lb.pp_outcome (function
    | Symmetry_lb.Fooled _ -> Fooled
    | Symmetry_lb.Resisted _ -> Resisted
    | Symmetry_lb.Prover_failed _ -> Prover_failed)

let non3col_report =
  report Non3col_lb.pp_outcome (function
    | Non3col_lb.Fooled _ -> Fooled
    | Non3col_lb.Resisted _ -> Resisted
    | Non3col_lb.Prover_failed _ -> Prover_failed)

let odd n = if n mod 2 = 0 then n + 1 else n

let gluing ~name ~what ~default ~family undersized honest =
  {
    name;
    section = "Figure 1 / Section 5.3: gluing cycles";
    undersized = (what ^ ", 2-bit counters", undersized);
    honest = (what ^ ", honest Θ(log n)", honest);
    family = None;
    run =
      (fun ?(n = default) s ->
        gluing_report (Gluing.attack ~rows:4 s (family ~n)));
  }

let asymmetric_6 = lazy (Enumerate.asymmetric_connected 6)
let rooted_trees_6 = lazy (Tree_enum.rooted_trees 6)
let sized fmt family = Some (lazy (Printf.sprintf fmt (List.length (Lazy.force family))))

(* four subsets of I×I at k = 1: enough for two windows to collide *)
let non3col_sets =
  Some [ [ (0, 1) ]; [ (1, 0) ]; [ (0, 0); (1, 1) ]; [ (0, 1); (1, 0) ] ]

let all =
  [
    gluing ~name:"gluing-odd" ~what:"odd-n" ~default:9
      ~family:(fun ~n -> Gluing.odd_cycles ~n:(odd n))
      (Truncated.odd_n_cycle ~bits:2) Counting.odd_n;
    gluing ~name:"gluing-leader" ~what:"leader" ~default:8
      ~family:Gluing.leader_cycles
      (Truncated.leader_cycle ~bits:2) Leader_election.strong;
    gluing ~name:"gluing-matching" ~what:"max-matching" ~default:9
      ~family:(fun ~n -> Gluing.matching_cycles ~n:(odd n))
      (Truncated.max_matching_cycle ~bits:2) Matching_schemes.maximum_on_cycle;
    {
      name = "symmetry";
      section = "Section 6.1: symmetric graphs need Ω(n²) bits";
      undersized = ("claims scheme, O(Δ log n) bits", Truncated.symmetric_claims);
      honest = ("universal scheme, Θ(n²) bits", Universal.symmetric);
      family =
        sized "family F_6: %d pairwise non-isomorphic asymmetric connected graphs"
          asymmetric_6;
      run =
        (fun ?n:_ s ->
          symmetry_report
            (Symmetry_lb.attack_symmetric s ~family:(Lazy.force asymmetric_6)));
    };
    {
      name = "trees";
      section = "Section 6.2: fixpoint-free tree symmetry needs Ω(n)";
      undersized =
        ("claims scheme, O(Δ log n) bits", Truncated.fixpoint_free_claims);
      honest =
        ("tree-universal scheme, Θ(n) bits", Tree_universal.fixpoint_free_symmetry);
      family = sized "family: %d rooted trees on 6 nodes (A000081)" rooted_trees_6;
      run =
        (fun ?n:_ s ->
          symmetry_report
            (Symmetry_lb.attack_trees s ~family:(Lazy.force rooted_trees_6)));
    };
    {
      name = "non3col";
      section = "Section 6.3: non-3-colourability needs Ω(n²/log n)";
      undersized =
        ( "ball-claims scheme, O(Δ² log n)",
          Truncated.ball_claims ~name:"non3col-ball-claims" (fun g ->
              not (Coloring.is_k_colourable g 3)) );
      honest = ("universal scheme, Θ(n²)", Universal.non_3_colourable);
      family = None;
      run =
        (fun ?n:_ s ->
          non3col_report (Non3col_lb.attack ~k:1 ~r:1 ~sets:non3col_sets s));
    };
  ]
