(* Table-driven metatests: every catalogue entry must be complete on
   its yes-generator and reject its no-generator (prover refusal plus
   randomised soundness). One sweep covers the whole of Table 1. *)

let check = Alcotest.(check bool)

let completeness_sweep () =
  let st = Random.State.make [| 11 |] in
  List.iter
    (fun (e : Catalog.entry) ->
      List.iter
        (fun size ->
          match e.Catalog.yes st size with
          | None -> ()
          | Some inst -> (
              match Scheme.prove_and_check e.Catalog.scheme inst with
              | `Accepted proof ->
                  check
                    (Printf.sprintf "%s (%s): size bound at %d" e.Catalog.id
                       e.Catalog.scheme.Scheme.name size)
                    true
                    (Proof.size proof
                    <= e.Catalog.scheme.Scheme.size_bound (Instance.n inst))
              | `No_proof ->
                  Alcotest.fail
                    (Printf.sprintf "%s: prover refused its own yes-instance (size %d)"
                       e.Catalog.id size)
              | `Rejected (_, vs) ->
                  Alcotest.fail
                    (Printf.sprintf "%s: own proof rejected at [%s] (size %d)"
                       e.Catalog.id
                       (String.concat "," (List.map string_of_int vs))
                       size)))
        [ 6; 10; 14 ])
    Catalog.all

let soundness_sweep () =
  let st = Random.State.make [| 13 |] in
  List.iter
    (fun (e : Catalog.entry) ->
      match e.Catalog.no st 8 with
      | None -> ()
      | Some inst ->
          (* LCP(0) provers are trivial (there is nothing to produce),
             so the right invariant is: proving a no-instance never
             ends in acceptance. *)
          check
            (Printf.sprintf "%s: no-instance never accepted via prover" e.Catalog.id)
            false
            (match Scheme.prove_and_check e.Catalog.scheme inst with
            | `Accepted _ -> true
            | `No_proof | `Rejected _ -> false);
          check
            (Printf.sprintf "%s: random proofs rejected" e.Catalog.id)
            true
            (Checker.soundness_random e.Catalog.scheme inst ~samples:120 ~max_bits:5))
    Catalog.all

let ids_unique () =
  let ids = List.map (fun (e : Catalog.entry) -> e.Catalog.id) Catalog.all in
  check "unique ids" true (List.sort_uniq compare ids = List.sort compare ids)

let suite =
  ( "catalog",
    [
      Alcotest.test_case "ids unique" `Quick ids_unique;
      Alcotest.test_case "completeness sweep over Table 1" `Slow completeness_sweep;
      Alcotest.test_case "soundness sweep over Table 1" `Slow soundness_sweep;
    ] )
