type witness = { sets : Graph.node -> int -> bool; x : Graph.node option }

let check_witness sentence g w =
  let sets i v = w.sets v i in
  Graph.fold_nodes
    (fun y acc -> acc && Eval.eval_global g sets ~x:w.x ~y sentence.Formula.phi)
    g true

let brute_force_bits = 24

let find_witness sentence g =
  let nodes = Array.of_list (Graph.nodes g) in
  let n = Array.length nodes in
  let k = sentence.Formula.k in
  let xs =
    if sentence.Formula.uses_x then List.map Option.some (Graph.nodes g)
    else [ None ]
  in
  (* Enumerate all k·n membership bits. *)
  let total = k * n in
  if total > brute_force_bits then
    invalid_arg
      (Printf.sprintf
         "Sigma11: the brute-force witness search is limited to k*n <= %d \
          membership bits; this instance needs k*n = %d*%d = %d"
         brute_force_bits k n total);
  let rec search mask =
    if mask >= 1 lsl total then None
    else begin
      let sets v i =
        let rec index j = if nodes.(j) = v then j else index (j + 1) in
        let j = index 0 in
        mask lsr ((j * k) + i) land 1 = 1
      in
      let w_of x = { sets; x } in
      match List.find_opt (fun x -> check_witness sentence g (w_of x)) xs with
      | Some x -> Some (w_of x)
      | None -> search (mask + 1)
    end
  in
  if Graph.is_empty g then None else search 0

let holds sentence g =
  (not (Graph.is_empty g)) && find_witness sentence g <> None

(* Proof layout: k set bits; if uses_x: tree certificate ++ k bits of
   the witness node's memberships. *)
let encode_node sentence ~bits ~cert ~x_bits =
  let buf = Bits.Writer.create () in
  List.iter (Bits.Writer.bool buf) bits;
  if sentence.Formula.uses_x then begin
    (match cert with
    | Some c -> Tree_cert.write buf c
    | None -> invalid_arg "Sigma11: missing tree certificate");
    List.iter (Bits.Writer.bool buf) x_bits
  end;
  Bits.Writer.contents buf

let decode_node sentence b =
  let cur = Bits.Reader.of_bits b in
  let k = sentence.Formula.k in
  let bits = List.init k (fun _ -> Bits.Reader.bool cur) in
  let cert, x_bits =
    if sentence.Formula.uses_x then begin
      let c = Tree_cert.read cur in
      let xb = List.init k (fun _ -> Bits.Reader.bool cur) in
      (Some c, xb)
    end
    else (None, [])
  in
  Bits.Reader.expect_end cur;
  (bits, cert, x_bits)

let scheme ?find sentence =
  if not (Formula.well_formed sentence) then
    invalid_arg "Sigma11.scheme: ill-formed sentence";
  let find = Option.value ~default:(find_witness sentence) find in
  let radius = max 1 sentence.Formula.locality in
  Scheme.make
    ~name:(Printf.sprintf "sigma11-%s" sentence.Formula.name)
    ~radius
    ~size_bound:(fun n ->
      sentence.Formula.k * 2 + Tree_cert.size_bound n + 2)
    ~prover:(fun inst ->
      let g = Instance.graph inst in
      if Graph.is_empty g || not (Traversal.is_connected g) then None
      else
        match find g with
        | None -> None
        | Some w ->
            let k = sentence.Formula.k in
            let bits_of v = List.init k (w.sets v) in
            let certs =
              if sentence.Formula.uses_x then begin
                match w.x with
                | None -> invalid_arg "Sigma11: witness missing x"
                | Some a ->
                    let tbl = Hashtbl.create 64 in
                    List.iter
                      (fun (v, c) -> Hashtbl.replace tbl v c)
                      (Tree_cert.prove g ~root:a);
                    Some (tbl, bits_of a)
              end
              else None
            in
            Some
              (Graph.fold_nodes
                 (fun v p ->
                   let cert, x_bits =
                     match certs with
                     | Some (tbl, xb) -> (Some (Hashtbl.find tbl v), xb)
                     | None -> (None, [])
                   in
                   Proof.set p v
                     (encode_node sentence ~bits:(bits_of v) ~cert ~x_bits))
                 g Proof.empty))
    ~verifier:(fun view ->
      let v = View.centre view in
      let bits, cert, x_bits = decode_node sentence (View.proof_of view v) in
      let tree_ok =
        if sentence.Formula.uses_x then begin
          let cert_of u =
            match decode_node sentence (View.proof_of view u) with
            | _, Some c, _ -> c
            | _, None, _ -> raise (Bits.Reader.Decode_error "missing cert")
          in
          Tree_cert.check_at view ~cert_of
          (* Neighbours agree on the witness bits of x… *)
          && List.for_all
               (fun u ->
                 let _, _, xb = decode_node sentence (View.proof_of view u) in
                 xb = x_bits)
               (View.neighbours view v)
          (* …and at the root they coincide with its own bits. *)
          && (match cert with
             | Some c when Tree_cert.is_root c -> bits = x_bits
             | _ -> true)
        end
        else true
      in
      tree_ok
      &&
      let x =
        match cert with Some c -> Some c.Tree_cert.root | None -> None
      in
      let sets i u =
        match x with
        | Some a when u = a ->
            (* x may lie outside the view; its bits travel in every
               proof. Inside the view this agrees with u's own bits
               thanks to the root check + agreement + tree validity. *)
            List.nth x_bits i
        | _ ->
            let b, _, _ = decode_node sentence (View.proof_of view u) in
            List.nth b i
      in
      Eval.eval_local view sets ~x sentence.Formula.phi)
