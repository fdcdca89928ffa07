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

let suite =
  ( "catalog",
    [
      Alcotest.test_case "ids unique" `Quick ids_unique;
      Alcotest.test_case "rows well-formed" `Quick rows_well_formed;
      Alcotest.test_case "sampled keys are registry entries" `Quick sampled_keys;
      Alcotest.test_case "sweeps cover the generators" `Quick sweeps_cover;
      Alcotest.test_case "completeness sweep over Table 1" `Slow completeness_sweep;
      Alcotest.test_case "soundness sweep over Table 1" `Slow soundness_sweep;
    ] )
