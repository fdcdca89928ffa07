(* The instance file format behind bin/lcp. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let write_tmp content =
  let path = Filename.temp_file "lcp_test" ".lcp" in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

let parse content = Graph_file.load_instance (write_tmp content)

let basic_edges () =
  let inst = parse "0 1\n1 2\nedge 2 3\nnode 9\n# comment\n" in
  let g = Instance.graph inst in
  check_int "nodes" 5 (Graph.n g);
  check_int "edges" 3 (Graph.m g);
  check "isolated node" true (Graph.mem_node g 9)

let marks () =
  let inst = parse "0 1\n1 2\ns 0\nt 2\n" in
  (match St.find inst with
  | Some (s, t) ->
      check_int "s" 0 s;
      check_int "t" 2 t
  | None -> Alcotest.fail "marks not found");
  let inst = parse "0 1\nleader 1\n" in
  check "leader" true (Instance.marked_exactly_one inst = Some 1)

let flags () =
  let inst = parse "0 1\n1 2\n2 3\nflag 1 2\n" in
  check "flagged" true (Instance.flagged_edges inst = [ (1, 2) ]);
  (* unflagged edges carry an explicit 0 *)
  check_int "label present" 1 (Bits.length (Instance.edge_label inst 0 1))

let weights () =
  let inst = parse "0 1\n1 2\nweight 0 1 5\nweight 1 2 3\nflag 0 1\n" in
  check_int "weight 0-1" 5 (Matching_schemes.instance_weights inst (0, 1));
  check_int "weight 1-2" 3 (Matching_schemes.instance_weights inst (1, 2));
  check "flagged" true (Instance.flagged_edges inst = [ (0, 1) ])

let arcs () =
  let inst = parse "arc 0 1\narc 1 2\narc 2 0\ns 0\nt 2\n" in
  check "arc 0->1" true (Instance.arc_exists inst 0 1);
  check "no arc 1->0" false (Instance.arc_exists inst 1 0)

let globals () =
  let inst = parse "0 1\n1 2\nk 3\n" in
  check_int "k" 3 (Bits.decode_int (Instance.globals inst))

let labels () =
  let inst = parse "0 1\nlabel 0 1011\n" in
  check "label" true (Bits.equal (Instance.node_label inst 0) (Bits.of_string "1011"))

let proof_roundtrip () =
  let proof =
    Proof.of_list [ (0, Bits.of_string "101"); (1, Bits.empty); (2, Bits.of_string "0") ]
  in
  let path = Filename.temp_file "lcp_test" ".proof" in
  Graph_file.save_proof path proof;
  let proof' = Graph_file.load_proof path in
  check "roundtrip" true (Proof.equal proof proof')

let bad_input () =
  Alcotest.check_raises "unknown directive"
    (Failure "line 1: unknown directive \"frobnicate\"") (fun () ->
      ignore (parse "frobnicate 3\n"));
  Alcotest.check_raises "bad int"
    (Failure "line 1: expected an integer, got \"x\"") (fun () ->
      ignore (parse "edge x 1\n"))

(* End-to-end: a file-driven prove/verify cycle. *)
let end_to_end () =
  let inst = parse "0 1\n1 2\n2 3\n3 0\n" in
  match Scheme.prove_and_check Bipartite_scheme.scheme inst with
  | `Accepted proof ->
      let path = Filename.temp_file "lcp_test" ".proof" in
      Graph_file.save_proof path proof;
      check "verify from file" true
        (Scheme.accepts Bipartite_scheme.scheme inst (Graph_file.load_proof path))
  | _ -> Alcotest.fail "prove failed"

(* The shared observability flags parse like the rest of the CLI: a
   negative sampling rate is a usage error, not a silent "off". *)
let obs_flags_parse () =
  let eval argv =
    let err = Format.make_formatter (fun _ _ _ -> ()) ignore in
    Cmdliner.Cmd.eval_value ~err ~help:err
      ~argv:(Array.append [| "lcp" |] argv)
      (Cmdliner.Cmd.v (Cmdliner.Cmd.info "lcp") Obs_flags.term)
  in
  let parses argv =
    match eval argv with Ok (`Ok cfg) -> Some cfg | _ -> None
  in
  (* "=" hands "-1" to the converter; without it cmdliner already
     reads "-1" as an unknown option *)
  check "--trace-sample=-1 is a parse error" true
    (eval [| "--trace-sample=-1" |] = Error `Parse);
  check "--trace-sample -1 is an error" true
    (Result.is_error (eval [| "--trace-sample"; "-1" |]));
  (match parses [| "--trace-sample"; "0" |] with
  | Some cfg -> check_int "0 parses" 0 cfg.Obs.trace_sample
  | None -> Alcotest.fail "--trace-sample 0 rejected");
  (match parses [| "--trace-sample"; "8"; "--obs-dir"; "d"; "--profile" |] with
  | Some cfg ->
      check_int "8 parses" 8 cfg.Obs.trace_sample;
      check "obs-dir" true (cfg.Obs.dir = Some "d");
      check "profile" true cfg.Obs.profile;
      check "metrics is not in the group" false cfg.Obs.metrics
  | None -> Alcotest.fail "--trace-sample 8 rejected");
  match parses [||] with
  | Some cfg -> check "defaults are off" true (cfg = Obs.off)
  | None -> Alcotest.fail "empty argv rejected"

(* [lcp table] and bench pad their columns by display width: each
   Table 1 row's paper class, padded, fills the same number of terminal
   columns, whatever its bytes. *)
let table_padding () =
  check_int "Σ¹₁ is three columns" 3 (Cli.display_width "Σ¹₁");
  let papers =
    List.filter_map
      (fun e -> Option.map (fun r -> r.Registry.paper) e.Registry.row)
      Registry.all
  in
  check_int "every Table 1 row" 27 (List.length papers);
  check "some class is multi-byte" true
    (List.exists (fun p -> Cli.display_width p < String.length p) papers);
  List.iter
    (fun p -> check_int (Printf.sprintf "%S padded" p) 20 (Cli.display_width (Cli.pad 20 p)))
    papers

(* The Σ¹₁ prover is a brute force over k·n membership bits, capped at
   24. [lcp prove] past the cap names it and exits 1, rather than dying
   on an uncaught exception (exit 125). *)
let sigma11_limit () =
  let lcp =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/lcp.exe"
  in
  let c26 =
    write_tmp
      (String.concat ""
         (List.init 26 (fun i -> Printf.sprintf "edge %d %d\n" i ((i + 1) mod 26))))
  in
  let err = Filename.temp_file "lcp_test" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s prove -s sigma11-2col -g %s >/dev/null 2>%s"
         (Filename.quote lcp) (Filename.quote c26) (Filename.quote err))
  in
  check_int "exit code" 1 code;
  let message = In_channel.with_open_text err In_channel.input_all in
  let names_limit =
    let sub = "k*n <= 24" in
    let rec at i =
      i + String.length sub <= String.length message
      && (String.sub message i (String.length sub) = sub || at (i + 1))
    in
    at 0
  in
  check "names the limit" true names_limit

let suite =
  ( "cli-format",
    [
      Alcotest.test_case "edges and nodes" `Quick basic_edges;
      Alcotest.test_case "s/t/leader marks" `Quick marks;
      Alcotest.test_case "edge flags" `Quick flags;
      Alcotest.test_case "weights" `Quick weights;
      Alcotest.test_case "arcs" `Quick arcs;
      Alcotest.test_case "globals" `Quick globals;
      Alcotest.test_case "raw labels" `Quick labels;
      Alcotest.test_case "proof file roundtrip" `Quick proof_roundtrip;
      Alcotest.test_case "bad input" `Quick bad_input;
      Alcotest.test_case "file-driven prove/verify" `Quick end_to_end;
      Alcotest.test_case "prove past the Σ¹₁ brute-force limit" `Quick
        sigma11_limit;
      Alcotest.test_case "observability flags parse" `Quick obs_flags_parse;
      Alcotest.test_case "table columns pad by display width" `Quick
        table_padding;
    ] )
