module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)

type record = {
  id : Graph.node;
  adjacency : Graph.node list;
  label : Bits.t;
  proof_bits : Bits.t;
  edge_bits : (Graph.node * Bits.t) list;
  ttl : int; (* how many further hops this record may travel *)
}

type transcript = { deliveries : int; quiescent : bool }

let gather ?(seed = 0xA57) ?(max_deliveries = 1_000_000) inst proof ~radius =
  let g = Instance.graph inst in
  let st = Random.State.make [| seed |] in
  let initial v =
    {
      id = v;
      adjacency = Graph.neighbours g v;
      label = Instance.node_label inst v;
      proof_bits = Proof.get proof v;
      edge_bits =
        List.map (fun u -> (u, Instance.edge_label inst v u)) (Graph.neighbours g v);
      ttl = radius;
    }
  in
  let knowledge : (Graph.node, record IntMap.t) Hashtbl.t = Hashtbl.create 64 in
  Graph.iter_nodes
    (fun v -> Hashtbl.replace knowledge v (IntMap.singleton v (initial v)))
    g;
  (* pending messages as a growable array we sample from randomly *)
  let pending = ref [] in
  let pending_count = ref 0 in
  let push msg =
    pending := msg :: !pending;
    incr pending_count
  in
  let pop_random () =
    (* remove a uniformly random element *)
    let i = Random.State.int st !pending_count in
    let rec go k acc = function
      | [] -> assert false
      | m :: rest ->
          if k = i then begin
            pending := List.rev_append acc rest;
            decr pending_count;
            m
          end
          else go (k + 1) (m :: acc) rest
    in
    go 0 [] !pending
  in
  Graph.iter_nodes
    (fun v -> List.iter (fun u -> push (v, u)) (Graph.neighbours g v))
    g;
  let deliveries = ref 0 in
  while !pending_count > 0 && !deliveries < max_deliveries do
    let src, dst = pop_random () in
    incr deliveries;
    let k_src = Hashtbl.find knowledge src in
    let k_dst = Hashtbl.find knowledge dst in
    let improved = ref false in
    let k_dst' =
      IntMap.fold
        (fun x r acc ->
          if r.ttl <= 0 then acc
          else
            let forwarded = { r with ttl = r.ttl - 1 } in
            match IntMap.find_opt x acc with
            | Some existing when existing.ttl >= forwarded.ttl -> acc
            | _ ->
                improved := true;
                IntMap.add x forwarded acc)
        k_src k_dst
    in
    if !improved then begin
      Hashtbl.replace knowledge dst k_dst';
      List.iter (fun w -> push (dst, w)) (Graph.neighbours g dst)
    end
  done;
  let views =
    Graph.fold_nodes
      (fun v acc ->
        let known = Hashtbl.find knowledge v in
        let known_ids = IntMap.fold (fun id _ s -> IntSet.add id s) known IntSet.empty in
        (* local BFS over learnt adjacency, bounded by radius *)
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
        let ball_set =
          Hashtbl.fold (fun x _ s -> IntSet.add x s) dist IntSet.empty
        in
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
                if Bits.length r.label > 0 then Instance.with_node_label acc x r.label
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
    { deliveries = !deliveries; quiescent = !pending_count = 0 } )

let agrees_with_synchronous ?seed inst proof ~radius =
  let async_views, tr = gather ?seed inst proof ~radius in
  tr.quiescent
  && List.for_all
       (fun (v, view) -> View.equal view (View.make inst proof ~centre:v ~radius))
       async_views
