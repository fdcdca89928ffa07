module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

type record = {
  id : Graph.node;
  adjacency : Graph.node list;
  label : Bits.t;
  proof_bits : Bits.t;
  edge_bits : (Graph.node * Bits.t) list; (* labels of incident edges *)
}

type transcript = { rounds : int; messages_sent : int; max_message_bits : int }

let record_bits r =
  Bits.length r.label + Bits.length r.proof_bits
  + List.fold_left (fun acc (_, b) -> acc + Bits.length b + 64) 64 r.edge_bits
  + (64 * (1 + List.length r.adjacency))

(* --- reference path: round-based full-knowledge exchange ------------- *)

(* This is the executable form of the paper's LOCAL-model claim and the
   semantic reference for the CSR engine below: every fast-path result
   is cross-checked against it by the test suite. It deliberately keeps
   the persistent-map implementation. *)
let gather inst proof ~radius =
  let g = Instance.graph inst in
  let initial v =
    {
      id = v;
      adjacency = Graph.neighbours g v;
      label = Instance.node_label inst v;
      proof_bits = Proof.get proof v;
      edge_bits =
        List.map (fun u -> (u, Instance.edge_label inst v u)) (Graph.neighbours g v);
    }
  in
  (* knowledge.(v) : record IntMap — everything v has heard of. *)
  let knowledge = Hashtbl.create 64 in
  Graph.iter_nodes
    (fun v -> Hashtbl.replace knowledge v (IntMap.singleton v (initial v)))
    g;
  let messages = ref 0 in
  let max_bits = ref 0 in
  for _round = 1 to radius do
    (* Synchronous: compute all outgoing messages from the current
       state, then deliver. *)
    let outgoing =
      Graph.fold_nodes
        (fun v acc -> (v, Hashtbl.find knowledge v) :: acc)
        g []
    in
    List.iter
      (fun (v, known) ->
        let payload =
          IntMap.fold (fun _ r acc -> record_bits r + acc) known 0
        in
        Graph.iter_neighbours
          (fun u ->
            incr messages;
            max_bits := max !max_bits payload;
            let k_u = Hashtbl.find knowledge u in
            let merged =
              IntMap.union (fun _ r _ -> Some r) k_u known
            in
            Hashtbl.replace knowledge u merged)
          g v)
      outgoing
  done;
  (* A node's final knowledge covers its radius-r ball; rebuild the view
     by restricting the instance to the nodes it knows within distance
     r (computable locally from the learnt adjacency lists). *)
  let views =
    Graph.fold_nodes
      (fun v acc ->
        let known = Hashtbl.find knowledge v in
        let known_ids =
          IntMap.fold (fun id _ s -> IntSet.add id s) known IntSet.empty
        in
        (* Local BFS over learnt adjacency, bounded by radius. *)
        let dist = Hashtbl.create 32 in
        Hashtbl.replace dist v 0;
        let q = Queue.create () in
        Queue.push v q;
        while not (Queue.is_empty q) do
          let x = Queue.pop q in
          let d = Hashtbl.find dist x in
          if d < radius then
            match IntMap.find_opt x known with
            | None -> ()
            | Some r ->
                List.iter
                  (fun y ->
                    if IntSet.mem y known_ids && not (Hashtbl.mem dist y) then begin
                      Hashtbl.replace dist y (d + 1);
                      Queue.push y q
                    end)
                  r.adjacency
        done;
        let ball = Hashtbl.fold (fun x _ acc -> x :: acc) dist [] in
        let ball_set = IntSet.of_list ball in
        (* Assemble a fresh instance covering exactly the ball. *)
        let sub_graph =
          IntSet.fold
            (fun x acc ->
              let r = IntMap.find x known in
              List.fold_left
                (fun acc y ->
                  if IntSet.mem y ball_set then Graph.add_edge acc x y else acc)
                (Graph.add_node acc x) r.adjacency)
            ball_set Graph.empty
        in
        let sub_inst = Instance.on_graph inst sub_graph in
        let sub_inst =
          IntSet.fold
            (fun x acc ->
              let r = IntMap.find x known in
              let acc =
                if Bits.length r.label > 0 then
                  Instance.with_node_label acc x r.label
                else acc
              in
              List.fold_left
                (fun acc (y, b) ->
                  if IntSet.mem y ball_set && Bits.length b > 0 then
                    Instance.with_edge_label acc x y b
                  else acc)
                acc r.edge_bits)
            ball_set sub_inst
        in
        let sub_proof =
          IntSet.fold
            (fun x acc -> Proof.set acc x (IntMap.find x known).proof_bits)
            ball_set Proof.empty
        in
        (v, View.make sub_inst sub_proof ~centre:v ~radius) :: acc)
      g []
  in
  ( List.rev views,
    { rounds = radius; messages_sent = !messages; max_message_bits = !max_bits } )

let run_verifier_reference inst proof ~radius verifier =
  let views, transcript = gather inst proof ~radius in
  ( List.map
      (fun (v, view) ->
        (v, try verifier view with Bits.Reader.Decode_error _ -> false))
      views,
    transcript )

(* --- fast path: compiled CSR + bounded scratch BFS ------------------- *)

(* Observability. Counters and histograms shard per domain, so
   recording under [Pool.parallel_for] is race- and allocation-free;
   the [_ns] counters accumulate per-phase time (ball extraction vs
   verifier eval), which costs two monotonic clock reads per node and
   is therefore also guarded at the call site, not just inside
   [Metrics]. Per-node trace spans only fire when tracing is on. *)
let m_compiles = Obs.Metrics.counter "simulator.compiles"
let m_balls = Obs.Metrics.counter "simulator.balls_extracted"
let m_ball_size = Obs.Metrics.histogram "simulator.ball_size"
let m_ball_ns = Obs.Metrics.counter "simulator.ball_ns"
let m_calls = Obs.Metrics.counter "simulator.verifier_calls"
let m_rejects = Obs.Metrics.counter "simulator.verifier_rejects"
let m_decode_errors = Obs.Metrics.counter "simulator.decode_errors"
let m_eval_ns = Obs.Metrics.counter "simulator.eval_ns"

(* The image is the instance: its CSR rows are the instance's own
   once-cell, and views read labels and globals from it. *)
type compiled = Instance.t

let counted build =
  Obs.Metrics.incr m_compiles;
  if Obs.Trace.on () then Obs.Trace.span "simulator.compile" build
  else build ()

let compile inst =
  counted (fun () ->
      ignore (Instance.csr inst);
      inst)

let compile_csr csr = counted (fun () -> Instance.of_csr csr)
let compiled_instance c = c
let compiled_csr = Instance.csr

(* Windows onto [inst]'s labels and [proof] whose ball is the last
   [Csr.ball] run on [scratch] over [csr], all on one decoding plane:
   nothing is copied, so a view is only valid until that scratch's next
   ball. *)
let windows inst csr scratch proof plane ~radius =
  let dist = Csr.node_dist csr scratch
  and neighbours = Csr.ball_neighbours csr scratch in
  fun centre_idx ->
    View.window inst proof ~plane ~centre:(Csr.node csr centre_idx) ~radius
      ~dist ~neighbours

(* Run one bounded BFS and return the ball's size. *)
let extract csr scratch ~centre_idx ~radius =
  let t0 = if !Obs.Metrics.enabled then Obs.Clock.now_ns () else 0 in
  let count = Csr.ball csr scratch ~centre:centre_idx ~radius in
  if t0 <> 0 then begin
    Obs.Metrics.incr m_balls;
    Obs.Metrics.observe m_ball_size count;
    Obs.Metrics.add m_ball_ns (Obs.Clock.now_ns () - t0)
  end;
  count

(* A view that outlives any sweep: the ball is cut out of the CSR and
   searched again on its own ball-sized scratch, so the view holds
   O(ball) memory rather than an O(n) scratch. *)
let view_at c proof ~radius v =
  if radius < 0 then invalid_arg "Simulator.view_at: negative radius";
  let csr = Instance.csr c in
  let scratch = Csr.scratch csr in
  let count = extract csr scratch ~centre_idx:(Csr.index csr v) ~radius in
  let ball, _ = Csr.extract_subgraph csr (Array.init count (Csr.visited scratch)) in
  let s = Csr.scratch ball in
  let centre_idx = Csr.index ball v in
  ignore (Csr.ball ball s ~centre:centre_idx ~radius);
  windows c ball s proof (View.plane (Csr.index ball)) ~radius centre_idx

(* --- arena: per-domain buffers reused across verification runs ------- *)

(* Extends [Csr.scratch]'s lazy-reset idea up through the whole
   sequential sweep: one arena owns its BFS scratch and verdict array,
   grown monotonically to the largest graph seen. Views read the
   arena's scratch in place, so a warm [run_compiled ~arena] run
   allocates only each view's small window record per node.
   Single-owner, like a scratch: never share one arena between
   domains. *)
type arena = { mutable a_scratch : Csr.scratch; mutable a_verdicts : bool array }

let arena () = { a_scratch = Csr.scratch_of_capacity 1; a_verdicts = [||] }

let arena_fit a n =
  if Csr.scratch_capacity a.a_scratch < n then
    a.a_scratch <- Csr.scratch_of_capacity n;
  if Array.length a.a_verdicts < n then a.a_verdicts <- Array.make n false

(* --- the sweep: one loop behind every fast-path entry point ---------- *)

(* Run [verifier] at the dense indices [idxs] (every node, in dense
   order, when absent) and write position j's verdict to the returned
   array's slot j. Everything the entry points share lives here, once:
   the decode-error catch (a malformed proof string rejects at that
   node, as in [Scheme.decide]), the metrics and per-node ball/eval
   spans, the arena fit and the split between the sequential loop and
   [Pool.parallel_for]. With [early_exit] the sweep stops at the first
   rejection and keeps no verdicts (the first result is empty); the
   second result says whether any node rejected. *)
let sweep ~jobs ?arena ?idxs ?(early_exit = false) ~span c proof ~radius
    verifier =
  let csr = Instance.csr c in
  let n = Csr.n csr in
  let k = match idxs with Some a -> Array.length a | None -> n in
  let idx j = match idxs with Some a -> a.(j) | None -> j in
  (* The arena only serves the sequential sweep: chunked workers each
     need their own scratch, so [jobs > 1] ignores it. *)
  let arena = if jobs <= 1 then arena else None in
  (match arena with Some a -> arena_fit a (max n k) | None -> ());
  (* an early-exit sweep answers only "did any node reject?" *)
  let verdicts =
    match arena with
    | _ when early_exit -> [||]
    | Some a -> a.a_verdicts
    | None -> Array.make k false
  in
  let rejected = Atomic.make false in
  (* one stamp per sweep: every view below shares its decoded
     certificates, keyed by dense index *)
  let plane = View.plane (Csr.index csr) in
  let ball scratch window i =
    ignore (extract csr scratch ~centre_idx:i ~radius);
    window i
  in
  let eval view =
    try verifier view
    with Bits.Reader.Decode_error _ ->
      Obs.Metrics.incr m_decode_errors;
      false
  in
  let process scratch window j =
    let i = idx j in
    let tracing = Obs.Trace.on () in
    let view =
      if tracing then
        Obs.Trace.span_arg "simulator.ball" "node" (Csr.node csr i)
          (fun () -> ball scratch window i)
      else ball scratch window i
    in
    let t0 = if !Obs.Metrics.enabled then Obs.Clock.now_ns () else 0 in
    let ok =
      if tracing then
        Obs.Trace.span_arg "simulator.eval" "node" (Csr.node csr i)
          (fun () -> eval view)
      else eval view
    in
    if t0 <> 0 then Obs.Metrics.add m_eval_ns (Obs.Clock.now_ns () - t0);
    Obs.Metrics.incr m_calls;
    if not ok then begin
      Obs.Metrics.incr m_rejects;
      Atomic.set rejected true
    end;
    if not early_exit then verdicts.(j) <- ok
  in
  let range scratch lo hi =
    let window = windows c csr scratch proof plane ~radius in
    let j = ref lo in
    while !j < hi && not (early_exit && Atomic.get rejected) do
      process scratch window !j;
      incr j
    done
  in
  let go () =
    Pool.run ~jobs (fun pool ->
        match pool with
        | None ->
            let scratch =
              match arena with Some a -> a.a_scratch | None -> Csr.scratch csr
            in
            range scratch 0 k
        | Some pool ->
            Pool.parallel_for pool ~chunks:(Pool.size pool) ~n:k (fun _c lo hi ->
                let scratch = Csr.scratch csr in
                if Obs.Trace.on () then
                  Obs.Trace.span_arg "simulator.chunk" "nodes" (hi - lo)
                    (fun () -> range scratch lo hi)
                else range scratch lo hi))
  in
  if Obs.Trace.on () then Obs.Trace.span_arg span "nodes" k go else go ();
  (verdicts, Atomic.get rejected)

let run_compiled ?(jobs = 1) ?arena c proof ~radius verifier =
  if radius < 0 then invalid_arg "Simulator.run_verifier: negative radius";
  let verdicts, _ =
    sweep ~jobs ?arena ~span:"simulator.run_verifier" c proof ~radius verifier
  in
  let csr = Instance.csr c in
  List.init (Csr.n csr) (fun i -> (Csr.node csr i, verdicts.(i)))

(* Transcript of the synchronous exchange, computed in closed form:
   every node sends its whole knowledge to every neighbour each round,
   so messages = radius * Σ deg(v), and the largest message is the
   final-round payload of the best-informed sender, the summed
   [record_bits] of its radius-(r-1) ball — exactly what [gather]
   counts, without re-running the exchange. *)
let transcript c proof ~radius =
  let csr = Instance.csr c in
  let n = Csr.n csr in
  let max_message_bits =
    if radius = 0 then 0
    else begin
      let size =
        Array.init n (fun i ->
            let v = Csr.node csr i in
            let bits = ref (Bits.length (Instance.node_label c v)) in
            Csr.iter_neighbours csr i (fun j ->
                bits := !bits + Bits.length (Instance.edge_label c v (Csr.node csr j)));
            !bits + Bits.length (Proof.get proof v) + 128 + (128 * Csr.degree csr i))
      in
      let scratch = Csr.scratch csr and largest = ref 0 in
      for i = 0 to n - 1 do
        if Csr.degree csr i > 0 then begin
          let payload = ref 0 in
          for k = 0 to Csr.ball csr scratch ~centre:i ~radius:(radius - 1) - 1 do
            payload := !payload + size.(Csr.visited scratch k)
          done;
          largest := max !largest !payload
        end
      done;
      !largest
    end
  in
  { rounds = radius; messages_sent = radius * 2 * Csr.m csr; max_message_bits }

let run_verifier ?jobs ?compiled ?arena inst proof ~radius verifier =
  let c = match compiled with Some c -> c | None -> compile inst in
  let verdicts = run_compiled ?jobs ?arena c proof ~radius verifier in
  (verdicts, transcript c proof ~radius)

(* Partition shards verify only their owned nodes. *)
let run_verifier_on ?(jobs = 1) ?arena c proof ~radius ~nodes verifier =
  if radius < 0 then invalid_arg "Simulator.run_verifier_on: negative radius";
  let csr = Instance.csr c in
  let idxs = Array.map (Csr.index csr) nodes in
  let verdicts, _ =
    sweep ~jobs ?arena ~idxs ~span:"simulator.run_verifier_on" c proof ~radius
      verifier
  in
  List.init (Array.length nodes) (fun j -> (nodes.(j), verdicts.(j)))

let all_accept c proof ~radius verifier =
  if radius < 0 then invalid_arg "Simulator.all_accept: negative radius";
  let _, rejected =
    sweep ~jobs:1 ~early_exit:true ~span:"simulator.all_accept" c proof ~radius
      verifier
  in
  not rejected

let rejecting verdicts =
  List.filter_map (fun (v, ok) -> if ok then None else Some v) verdicts

let agrees_with_direct inst proof ~radius =
  let c = compile inst in
  let views, _ = gather inst proof ~radius in
  List.for_all
    (fun (v, view) ->
      View.equal view (View.make inst proof ~centre:v ~radius)
      && View.equal view (view_at c proof ~radius v))
    views
