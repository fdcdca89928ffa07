(* Seeded workload generation: the instances each workload serves,
   their valid and tampered proofs, the expected verdicts (the oracle)
   and one deterministic op stream per client connection.

   Everything here is a pure function of the workload and the seed:
   the daemons only ever see frames built from these values. *)

let schemes = [| "bipartite"; "non-bipartite"; "odd-n"; "even-n"; "eulerian" |]

type inst = {
  idx : int;
  scheme : string;
  sch : Scheme.t;
  n : int;
  graph6 : string;
  compiled : Simulator.compiled;
  proof : Proof.t;
  tampered : Proof.t;
      (** [proof] with every bit of one node flipped; equal to [proof]
          when the proof carries no bits (eulerian). *)
  has_bits : bool;
  expect_tampered : int list;
      (** Rejecting nodes under [tampered], sorted. The valid proof is
          checked to be accepted everywhere at generation time. *)
}

type op =
  | Verify of { inst : int; tampered : bool }
  | Prove of { inst : int }
  | Sampled of { inst : int; tampered : bool }
  | Batch of { items : (int * bool) array }  (** (instance, tampered) *)
  | Partition of { inst : int; tampered : bool }

type t = {
  name : string;
  seed : int;
  instances : inst array;
  n_min : int;
  n_max : int;
  routed : bool;  (** [lcp route] in front of two daemons *)
  warm : bool;  (** fill the caches before timing *)
  bipartite_idx : int array;  (** instances eligible for sampled ops *)
  bits_idx : int array;  (** instances whose proofs can be tampered *)
}

let names = [ "hot-verify"; "churn-prove-verify"; "routed-mixed" ]
let cache_size = 128
let batch_ops = 16
let batch_graphs = 4
let sampled_queries = 4
let partition_k = 2

(* (instances, n_min, n_max, routed, warm) *)
let shape = function
  | "hot-verify" -> Some (32, 256, 2048, false, true)
  | "churn-prove-verify" -> Some (512, 128, 1024, false, false)
  | "routed-mixed" -> Some (48, 128, 1024, true, true)
  | _ -> None

let params w =
  [
    ("instances", string_of_int (Array.length w.instances));
    ("n_min", string_of_int w.n_min);
    ("n_max", string_of_int w.n_max);
    ("schemes", String.concat "," (Array.to_list schemes));
    ("cache_size", string_of_int cache_size);
    ("daemons", if w.routed then "2" else "1");
    ("router", string_of_bool w.routed);
    ("warm_pass", string_of_bool w.warm);
    ("tamper_rate", "1/8");
  ]
  @
  match w.name with
  | "churn-prove-verify" -> [ ("mix", "prove:verify=1:3") ]
  | "routed-mixed" ->
      [
        ("mix", "verify:sampled:batch:partition=10:5:4:1 (partition on connection 0 only)");
        ("batch_ops", string_of_int batch_ops);
        ("batch_graphs", string_of_int batch_graphs);
        ("sampled_queries", string_of_int sampled_queries);
        ("partition_k", string_of_int partition_k);
      ]
  | _ -> [ ("mix", "verify") ]

(* --- instances --------------------------------------------------------- *)

let sorted l = List.sort compare l

(* A proof that does not decode is rejected, as the daemon does. *)
let safe_verifier (sch : Scheme.t) v =
  try sch.Scheme.verifier v with Bits.Reader.Decode_error _ -> false

(* The simulators a rejecting set can come from: the compiled fast
   path, and the slow persistent-map reference (small instances
   only). *)
let fast compiled inst proof ~radius verifier =
  Simulator.run_verifier ~compiled inst proof ~radius verifier

let reference _compiled inst proof ~radius verifier =
  Simulator.run_verifier_reference inst proof ~radius verifier

let rejecting ?(sim = fast) (sch : Scheme.t) compiled proof =
  let verdicts, _ =
    sim compiled
      (Simulator.compiled_instance compiled)
      proof ~radius:sch.Scheme.radius (safe_verifier sch)
  in
  List.filter_map (fun (v, ok) -> if ok then None else Some v) verdicts

let reference_max_n = 256

(* A connected bipartite graph: random sides, then every component
   outside the largest is tied to it by one edge across the sides. *)
let connected_bipartite st n p =
  let a = n / 2 in
  let g = Random_graphs.bipartite st a (n - a) p in
  match
    List.sort
      (fun x y -> compare (List.length y) (List.length x))
      (Traversal.components g)
  with
  | [] | [ _ ] -> g
  | big :: rest ->
      let side v = v < a in
      let big = Array.of_list big in
      List.fold_left
        (fun g comp ->
          let u = List.hd comp in
          let rec pick k =
            let v = big.(Random.State.int st (Array.length big)) in
            if side v <> side u || k > 1000 then v else pick (k + 1)
          in
          Graph.add_edge g u (pick 0))
        g rest

let random_graph st scheme ~n ~d =
  let p = d /. float_of_int (max 1 (n - 1)) in
  match scheme with
  | "bipartite" -> connected_bipartite st n (d /. float_of_int (n / 2))
  | "eulerian" -> Random_graphs.regular_even st n 2
  | _ -> Random_graphs.connected_gnp st n p

let flip_node proof v =
  Proof.set proof v
    (Bits.of_bools (List.map not (Bits.to_bools (Proof.get proof v))))

(* One instance: regenerate until the registry prover finds a proof
   (eulerian needs a simple union of two Hamiltonian cycles, and a
   dense G(n,p) is bipartite only by accident), then tamper one node
   that carries proof bits. *)
let make_instance st ~idx ~scheme ~n ~d =
  let entry =
    match Registry.find scheme with
    | Some e -> e
    | None -> failwith ("unknown scheme " ^ scheme)
  in
  let sch = entry.Registry.scheme in
  let n =
    match scheme with
    | "odd-n" -> n lor 1
    | "even-n" -> n land lnot 1
    | _ -> n
  in
  let rec attempt k =
    if k > 200 then
      failwith (Printf.sprintf "no %s instance on %d nodes after 200 draws" scheme n);
    let graph6 = Graph6.encode (random_graph st scheme ~n ~d) in
    let inst = Instance.of_graph (Graph6.decode graph6) in
    match sch.Scheme.prover inst with
    | None -> attempt (k + 1)
    | Some proof -> (graph6, inst, proof)
  in
  let graph6, inst, proof = attempt 0 in
  let compiled = Simulator.compile inst in
  let carrying =
    List.filter_map
      (fun (v, b) -> if Bits.length b > 0 then Some v else None)
      (Proof.bindings proof)
  in
  let has_bits = carrying <> [] in
  let tampered =
    if has_bits then
      flip_node proof
        (List.nth carrying (Random.State.int st (List.length carrying)))
    else proof
  in
  let valid = rejecting sch compiled proof in
  if valid <> [] then
    failwith
      (Printf.sprintf "%s: prover output rejected at %d node(s) on n=%d" scheme
         (List.length valid) n);
  let expect_tampered = sorted (rejecting sch compiled tampered) in
  (* the oracle itself is cross-checked against the reference
     simulator wherever that one is affordable *)
  if n <= reference_max_n then begin
    if rejecting ~sim:reference sch compiled proof <> [] then
      failwith (Printf.sprintf "%s: reference simulator rejects the valid proof" scheme);
    if sorted (rejecting ~sim:reference sch compiled tampered) <> expect_tampered then
      failwith (Printf.sprintf "%s: fast and reference simulators disagree" scheme)
  end;
  {
    idx;
    scheme;
    sch;
    n = Instance.n inst;
    graph6;
    compiled;
    proof;
    tampered;
    has_bits;
    expect_tampered;
  }

(* [Array.init] spread over the cores; [f] must only touch its own
   state. *)
let par_init n f =
  let d = max 1 (min 4 (Domain.recommended_domain_count ())) in
  let out = Array.make n None in
  let worker k () =
    let i = ref k in
    while !i < n do
      out.(!i) <- Some (f !i);
      i := !i + d
    done
  in
  let doms = List.init (d - 1) (fun k -> Domain.spawn (worker (k + 1))) in
  worker 0 ();
  List.iter Domain.join doms;
  Array.map Option.get out

let make name ~seed =
  match shape name with
  | None -> None
  | Some (count, n_min, n_max, routed, warm) ->
      (* sizes and mean degrees are spread evenly over their ranges
         and fixed by the workload, so every seed serves the same
         amount of work: the seed draws the graphs, proofs, tampering
         and op order *)
      let spread k = float_of_int k /. float_of_int (max 1 (count - 1)) in
      let instances =
        par_init count (fun idx ->
            let st = Random.State.make [| seed; idx; Hashtbl.hash name |] in
            let scheme = schemes.(idx mod Array.length schemes) in
            let n = n_min + truncate (spread idx *. float_of_int (n_max - n_min)) in
            let d = 4.0 +. (4.0 *. spread (idx * 7 mod count)) in
            make_instance st ~idx ~scheme ~n ~d)
      in
      let select f =
        Array.of_list
          (List.filter_map
             (fun i -> if f i then Some i.idx else None)
             (Array.to_list instances))
      in
      Some
        {
          name;
          seed;
          instances;
          n_min;
          n_max;
          routed;
          warm;
          bipartite_idx = select (fun i -> i.scheme = "bipartite" && i.has_bits);
          bits_idx = select (fun i -> i.has_bits);
        }

(* --- op streams -------------------------------------------------------- *)

(* A seeded deck over an index set: each index once per shuffled
   round, so every stretch of a run hits the working set evenly. *)
type deck = { cards : int array; mutable pos : int }

let deck cards = { cards = Array.copy cards; pos = Array.length cards }

let draw st d =
  if d.pos >= Array.length d.cards then begin
    for i = Array.length d.cards - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = d.cards.(i) in
      d.cards.(i) <- d.cards.(j);
      d.cards.(j) <- x
    done;
    d.pos <- 0
  end;
  d.pos <- d.pos + 1;
  d.cards.(d.pos - 1)

(* Connection [conn]'s stream: its own PRNG lane and decks, so the op
   order each connection sends is fixed by the seed whatever the
   interleaving. *)
type stream = {
  w : t;
  conn : int;
  st : Random.State.t;
  all : deck;
  bits : deck;
  bip : deck;
  kinds : deck;
  tamper : deck;
  mutable next : int;
}

(* Op kinds by card: 0 prove, 1 verify, 2 sampled, 3 batch,
   4 partitioned verify. A round of the deck is the workload's exact
   mix. *)
let kind_cards = function
  | "churn-prove-verify" -> [| 0; 1; 1; 1 |]
  | "routed-mixed" ->
      Array.concat [ Array.make 10 1; Array.make 5 2; Array.make 4 3; [| 4 |] ]
  | _ -> [| 1 |]

(* One op in 8 is tampered. *)
let tamper_cards = Array.init 8 (fun i -> if i = 0 then 1 else 0)

let stream w ~conn =
  {
    w;
    conn;
    st = Random.State.make [| w.seed; conn; 0x5eed |];
    all = deck (Array.init (Array.length w.instances) Fun.id);
    bits = deck w.bits_idx;
    bip = deck w.bipartite_idx;
    kinds = deck (kind_cards w.name);
    tamper = deck tamper_cards;
    next = 0;
  }

(* Correlation ids: connection in the high bits, op number below —
   far above the small ids a router allocates for split legs. *)
let rid_of ~conn i = ((conn + 1) lsl 40) lor i
let warm_rid i = (0xff lsl 40) lor i

let tampered s = draw s.st s.tamper = 1

(* A tampered verify draws from the instances whose proofs carry
   bits. *)
let verify_target s =
  if tampered s && Array.length s.w.bits_idx > 0 then (draw s.st s.bits, true)
  else (draw s.st s.all, false)

let next s =
  let w = s.w in
  let op =
    match draw s.st s.kinds with
    | 0 -> Prove { inst = draw s.st s.all }
    | 2 ->
        let inst = draw s.st s.bip in
        Sampled { inst; tampered = tampered s }
    | 3 ->
        let graphs = Array.init batch_graphs (fun _ -> draw s.st s.all) in
        Batch
          {
            items =
              Array.init batch_ops (fun j ->
                  let inst = graphs.(j mod batch_graphs) in
                  (inst, tampered s && w.instances.(inst).has_bits));
          }
    | 4 when s.conn = 0 ->
        (* partitioned verifies come from connection 0 only, so at
           most one fan-out is ever in flight *)
        let inst, tampered = verify_target s in
        Partition { inst; tampered }
    | _ ->
        let inst, tampered = verify_target s in
        Verify { inst; tampered }
  in
  let rid = rid_of ~conn:s.conn s.next in
  s.next <- s.next + 1;
  (rid, op)

let ops_of = function Batch { items } -> Array.length items | _ -> 1

let kind_of = function
  | Verify _ -> "verify"
  | Prove _ -> "prove"
  | Sampled _ -> "sampled"
  | Batch _ -> "batch"
  | Partition _ -> "partition"

(* --- frames ------------------------------------------------------------ *)

let proof_of (i : inst) tampered = if tampered then i.tampered else i.proof

let sampled_rs =
  match Sampled.find "bipartite" with
  | Some rs -> rs
  | None -> failwith "no sampled bipartite variant"

(* A tampered sampled op flips the first node its seed probes, so the
   probe pass must reject and the daemon must escalate. Returns the
   proof and the flipped node (-1 when untampered). *)
let sampled_proof (i : inst) ~rid ~tampered =
  if not tampered then (i.proof, -1)
  else
    let probes = Randomized_scheme.probe_nodes sampled_rs i.compiled ~seed:rid in
    (flip_node i.proof probes.(0), probes.(0))

(* The wire request for an op; [None] for a partitioned verify, which
   {!Fanout.verify} cuts and sends itself. *)
let request w ~rid op =
  let inst k = w.instances.(k) in
  match op with
  | Verify { inst = k; tampered } ->
      let i = inst k in
      Some (Wire.Verify { scheme = i.scheme; graph6 = i.graph6; proof = proof_of i tampered })
  | Prove { inst = k } ->
      let i = inst k in
      Some (Wire.Prove { scheme = i.scheme; graph6 = i.graph6 })
  | Sampled { inst = k; tampered } ->
      let i = inst k in
      Some
        (Wire.Verify_sampled
           {
             scheme = i.scheme;
             graph6 = i.graph6;
             proof = fst (sampled_proof i ~rid ~tampered);
             seed = rid;
             queries = sampled_queries;
             budget_id = "";
           })
  | Batch { items } ->
      (* shared tables: each distinct instance once, each distinct
         (instance, proof) once *)
      let gidx = Hashtbl.create 8 and pidx = Hashtbl.create 8 in
      let graphs = ref [] and proofs = ref [] in
      let index tbl acc key v =
        match Hashtbl.find_opt tbl key with
        | Some j -> j
        | None ->
            let j = Hashtbl.length tbl in
            Hashtbl.add tbl key j;
            acc := v :: !acc;
            j
      in
      let ops =
        Array.to_list
          (Array.map
             (fun (k, tampered) ->
               let i = inst k in
               let graph = index gidx graphs k i.graph6 in
               let proof = index pidx proofs (k, tampered) (proof_of i tampered) in
               Wire.Op_verify { scheme = i.scheme; graph; proof })
             items)
      in
      Some (Wire.Batch { graphs = List.rev !graphs; proofs = List.rev !proofs; ops })
  | Partition _ -> None

(* --- oracle ------------------------------------------------------------ *)

let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> []

let expected w k tampered =
  if tampered then w.instances.(k).expect_tampered else []

let check_verified w k tampered ~accepted ~rejecting =
  let e = expected w k tampered in
  accepted = (e = []) && sorted rejecting = e

(* A prove reply is right when its proof is accepted everywhere. *)
let check_proved w k = function
  | Wire.Proved (Some p) ->
      let i = w.instances.(k) in
      rejecting i.sch i.compiled p = []
  | _ -> false

let check_partition w k tampered (v : Fanout.verdict) =
  let e = expected w k tampered in
  v.Fanout.all_accept = (e = [])
  && v.Fanout.rejected = List.length e
  && v.Fanout.owned = w.instances.(k).n
  && v.Fanout.rejecting = take 64 e

(* Full rejecting sets of sampled escalations, keyed by (instance,
   flipped node). *)
let sampled_memo : (int * int, int list) Hashtbl.t = Hashtbl.create 64

(* Expected outcome of a sampled op: the probe pass replayed with the
   op's seed, escalated to the full rejecting set when it rejects. *)
let check_sampled w k ~rid ~tampered resp =
  let i = w.instances.(k) in
  let proof, flipped = sampled_proof i ~rid ~tampered in
  let o =
    Randomized_scheme.run sampled_rs i.compiled proof ~seed:rid
      ~queries:sampled_queries
  in
  match resp with
  | Wire.Sampled_verified
      { sampled_accept; escalated; accepted; bits_read; nodes; rejecting = r }
    ->
      let full =
        if o.Randomized_scheme.accepted then []
        else
          match Hashtbl.find_opt sampled_memo (k, flipped) with
          | Some r -> r
          | None ->
              let r = sorted (rejecting i.sch i.compiled proof) in
              Hashtbl.replace sampled_memo (k, flipped) r;
              r
      in
      sampled_accept = o.Randomized_scheme.accepted
      && escalated = not o.Randomized_scheme.accepted
      && accepted = (full = [])
      && bits_read = o.Randomized_scheme.bits_read
      && nodes = o.Randomized_scheme.nodes_checked
      && sorted r = take 64 full
  | _ -> false
