(* Table-driven metatests over the registry: every entry must be
   complete on its yes-generator and reject its no-generator (prover
   refusal plus randomised soundness), and the Table 1 rows the bench
   sweeps must be well-formed. *)

let check = Alcotest.(check bool)

let completeness_sweep () =
  let st = Random.State.make [| 11 |] in
  List.iter
    (fun (e : Registry.entry) ->
      List.iter
        (fun size ->
          match e.Registry.yes st size with
          | None -> ()
          | Some inst -> (
              match Scheme.prove_and_check e.Registry.scheme inst with
              | `Accepted proof ->
                  check
                    (Printf.sprintf "%s: size bound at %d" e.Registry.name size)
                    true
                    (Proof.size proof
                    <= e.Registry.scheme.Scheme.size_bound (Instance.n inst))
              | `No_proof ->
                  Alcotest.fail
                    (Printf.sprintf "%s: prover refused its own yes-instance (size %d)"
                       e.Registry.name size)
              | `Rejected (_, vs) ->
                  Alcotest.fail
                    (Printf.sprintf "%s: own proof rejected at [%s] (size %d)"
                       e.Registry.name
                       (String.concat "," (List.map string_of_int vs))
                       size)))
        [ 6; 10; 14 ])
    Registry.all

let soundness_sweep () =
  let st = Random.State.make [| 13 |] in
  List.iter
    (fun (e : Registry.entry) ->
      match e.Registry.no st 8 with
      | None -> ()
      | Some inst ->
          (* LCP(0) provers are trivial (there is nothing to produce),
             so the right invariant is: proving a no-instance never
             ends in acceptance. *)
          check
            (Printf.sprintf "%s: no-instance never accepted via prover" e.Registry.name)
            false
            (match Scheme.prove_and_check e.Registry.scheme inst with
            | `Accepted _ -> true
            | `No_proof | `Rejected _ -> false);
          check
            (Printf.sprintf "%s: random proofs rejected" e.Registry.name)
            true
            (Checker.soundness_random e.Registry.scheme inst ~samples:120 ~max_bits:5))
    Registry.all

(* The sweeps above skip entries without generators; they must keep
   covering at least the 22 schemes they covered when the generators
   lived in a table of their own. *)
let sweeps_cover () =
  let st = Random.State.make [| 17 |] in
  let count gen =
    List.length (List.filter (fun e -> gen e st 8 <> None) Registry.all)
  in
  check "yes-generators" true (count (fun e -> e.Registry.yes) >= 22);
  check "no-generators" true (count (fun e -> e.Registry.no) >= 22)

let rows =
  List.filter_map (fun (e : Registry.entry) -> e.Registry.row) Registry.all

let ids_unique () =
  let names = List.map (fun (e : Registry.entry) -> e.Registry.name) Registry.all in
  check "unique names" true
    (List.sort_uniq compare names = List.sort compare names);
  (* exactly the rows bench/main.exe writes, in table order *)
  let expected =
    List.init 18 (fun i -> Printf.sprintf "T1a-%d" (i + 1))
    @ List.init 9 (fun i -> Printf.sprintf "T1b-%d" (i + 1))
  in
  Alcotest.(check (list string))
    "Table 1 row ids" expected
    (List.map (fun r -> r.Registry.id) rows)

let rows_well_formed () =
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check int)
    "rows in the smoke sweep" 6
    (List.length (List.filter (fun r -> r.Registry.smoke <> []) rows));
  List.iter
    (fun (r : Registry.row) ->
      check (r.Registry.id ^ ": sizes increasing") true
        (r.Registry.sizes <> [] && increasing r.Registry.sizes);
      check (r.Registry.id ^ ": smoke sizes increasing") true
        (increasing r.Registry.smoke);
      check (r.Registry.id ^ ": accepted fits") true (r.Registry.fits <> []))
    rows

(* sampled.mli: the keys are registry names and each variant wraps
   that entry's scheme, so the deterministic and sampled paths agree on
   names, cache keys and escalation targets. *)
let sampled_keys () =
  List.iter
    (fun (name, rs) ->
      match Registry.find name with
      | None -> Alcotest.fail (name ^ ": sampled key is not a registry name")
      | Some e ->
          check (name ^ ": base is the registry scheme") true
            (rs.Randomized_scheme.base == e.Registry.scheme))
    Sampled.all

(* The allocation of one warm verify per row: each row's yes-instance
   at its smallest size through the pass the bench costs rows with
   (Registry.prove_and_cost), against a ceiling per row — the value
   measured when the ceiling was set plus 5%, rounded up to a whole
   word. The measurement is deterministic; the headroom is small enough
   that verifying without the arena (about 6 more words per node)
   breaks the leanest rows' ceilings. A row without a ceiling fails, so
   a new row gets one. *)
let minor_words_ceiling =
  [
    ("T1a-1", 48.0); (* measured 45.00 *)
    ("T1a-2", 3280.0); (* measured 3123.00 *)
    ("T1a-3", 58.0); (* measured 54.50 *)
    ("T1a-4", 76.0); (* measured 72.00 *)
    ("T1a-5", 62.0); (* measured 58.33 *)
    ("T1a-6", 176.0); (* measured 167.22 *)
    ("T1a-7", 57.0); (* measured 54.00 *)
    ("T1a-8", 57.0); (* measured 54.00 *)
    ("T1a-9", 167.0); (* measured 159.00 *)
    ("T1a-10", 115.0); (* measured 109.00 *)
    ("T1a-11", 130.0); (* measured 123.75 *)
    ("T1a-12", 988.0); (* measured 940.12 *)
    ("T1a-13", 99.0); (* measured 94.00 *)
    ("T1a-14", 102.0); (* measured 97.00 *)
    ("T1a-15", 3115.0); (* measured 2966.25 *)
    ("T1a-16", 4325.0); (* measured 4119.00 *)
    ("T1a-17", 5792.0); (* measured 5515.50 *)
    ("T1a-18", 1869.0); (* measured 1779.25 *)
    ("T1b-1", 68.0); (* measured 64.00 *)
    ("T1b-2", 59.0); (* measured 56.00 *)
    ("T1b-3", 84.0); (* measured 80.00 *)
    ("T1b-4", 132.0); (* measured 125.00 *)
    ("T1b-5", 79.0); (* measured 74.75 *)
    ("T1b-6", 116.0); (* measured 110.38 *)
    ("T1b-7", 101.0); (* measured 95.67 *)
    ("T1b-8", 121.0); (* measured 114.50 *)
    ("T1b-9", 125.0); (* measured 118.62 *)
  ]

let allocation_pin () =
  let over =
    List.filter_map
      (fun (e : Registry.entry) ->
        match e.Registry.row with
        | None -> None
        | Some r -> (
            let n = List.hd r.Registry.sizes in
            match Registry.prove_and_cost e.Registry.scheme (r.Registry.make n) with
            | Registry.Accepted _, Some c -> (
                let words = c.Registry.minor_words_per_node in
                match List.assoc_opt r.Registry.id minor_words_ceiling with
                | None ->
                    Some
                      (Printf.sprintf "%s: no ceiling (%.2f measured)"
                         r.Registry.id words)
                | Some ceiling when words > ceiling ->
                    Some
                      (Printf.sprintf "%s at %s=%d: %.2f minor words per node > %.0f"
                         r.Registry.id r.Registry.param n words ceiling)
                | Some _ -> None)
            | _ -> Some (r.Registry.id ^ ": the prover's proof is not accepted")))
      Registry.all
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* Prover scaling on counts, not time: words a prover allocates per
   node, at n and at 4n, on a path, a cycle and a connected G(n, 4/n),
   each at an even and an odd size (the parity schemes refuse one of
   the two). A near-linear prover keeps the ratio near 1 (a log factor
   from persistent maps reads about 1.25 from 256 to 1024 nodes); a
   quadratic one reads about 4. Minor words, as the allocation pin
   above counts: an array too large for the minor heap is not seen,
   but every list, tuple, closure and map node is.

   The gate covers the registry's bare-graph entries, whose provers
   read nothing but the graph; a labelled scheme refuses a bare path,
   which would measure nothing. It skips, by name:
   - the exponential provers: "symmetric" (automorphism search),
     "non-3-colourable" (3-colouring search) and "sigma11-2col" (the
     Σ¹₁ scheme's search over second-order witnesses);
   - the provers whose proof alone outgrows n: "connected-universal"
     writes Θ(n²) bits at every node and "tree-ffsym" Θ(n), so their
     words per node grow 16× and 4× from the output itself. *)
let scaling_bound = 2.0

let scaling_skipped =
  [ "symmetric"; "non-3-colourable"; "sigma11-2col"; "connected-universal"; "tree-ffsym" ]

let prover_words (sch : Scheme.t) g =
  let inst = Instance.of_graph g in
  let before = Gc.minor_words () in
  ignore (sch.Scheme.prover inst);
  (Gc.minor_words () -. before) /. float (Graph.n g)

let prover_scaling () =
  let bare (e : Registry.entry) =
    match e.Registry.yes (Random.State.make [| 7 |]) 8 with
    | Some i -> Instance.equal i (Instance.of_graph (Instance.graph i))
    | None -> false
  in
  let entries =
    List.filter
      (fun (e : Registry.entry) ->
        bare e && not (List.mem e.Registry.name scaling_skipped))
      Registry.all
  in
  check "the gate covers the five churn schemes" true
    (List.for_all
       (fun name -> List.exists (fun (e : Registry.entry) -> e.Registry.name = name) entries)
       [ "bipartite"; "non-bipartite"; "odd-n"; "even-n"; "eulerian" ]);
  let families =
    [
      ("path", Builders.path);
      ("cycle", Builders.cycle);
      ( "G(n,4/n)",
        fun n -> Random_graphs.connected_gnp (Random.State.make [| n |]) n (4.0 /. float n) );
    ]
  in
  let n = 256 in
  let over =
    List.concat_map
      (fun (e : Registry.entry) ->
        List.concat_map
          (fun (family, make) ->
            List.filter_map
              (fun parity ->
                let small = prover_words e.Registry.scheme (make (n + parity))
                and large = prover_words e.Registry.scheme (make ((4 * n) + parity)) in
                let ratio = large /. small in
                if ratio > scaling_bound then
                  Some
                    (Printf.sprintf "%s on a %s (+%d): %.2f -> %.2f words, %.2fx"
                       e.Registry.name family parity small large ratio)
                else None)
              [ 0; 1 ])
          families)
      entries
  in
  if over <> [] then
    Alcotest.failf "prover words per node grow past %.1fx from n=%d to %d: %s"
      scaling_bound n (4 * n) (String.concat "; " over)

let suite =
  ( "catalog",
    [
      Alcotest.test_case "ids unique" `Quick ids_unique;
      Alcotest.test_case "rows well-formed" `Quick rows_well_formed;
      Alcotest.test_case "sampled keys are registry entries" `Quick sampled_keys;
      Alcotest.test_case "sweeps cover the generators" `Quick sweeps_cover;
      Alcotest.test_case "per-row allocation pin" `Quick allocation_pin;
      Alcotest.test_case "prover scaling gate" `Quick prover_scaling;
      Alcotest.test_case "completeness sweep over Table 1" `Slow completeness_sweep;
      Alcotest.test_case "soundness sweep over Table 1" `Slow soundness_sweep;
    ] )
