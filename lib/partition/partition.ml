type shard = {
  index : int;
  count : int;
  radius : int;
  graph : Graph.t;
  ids : int array;
  owned : bool array;
}

let shard_n s = Array.length s.ids

let owned_count s =
  Array.fold_left (fun acc o -> if o then acc + 1 else acc) 0 s.owned

(* --- region growth ---------------------------------------------------- *)

(* Assign every dense index an owner in [0 .. k-1]: k seeds spread
   over the dense order, then round-robin BFS growth — each region in
   turn claims one unclaimed frontier neighbour, stopping at a ⌈n/k⌉
   cap so regions stay balanced even when seeds land in very different
   neighbourhoods. A per-node adjacency cursor makes the whole growth
   O(n + m): a claimed target is skipped exactly once. Components no
   frontier reaches seed the smallest under-cap region. *)
let partition_owners csr ~k =
  let n = Csr.n csr in
  let adj =
    Array.init n (fun i ->
        let l = ref [] in
        Csr.iter_neighbours csr i (fun u -> l := u :: !l);
        Array.of_list (List.rev !l))
  in
  let owner = Array.make n (-1) in
  let cap = (n + k - 1) / k in
  let sizes = Array.make k 0 in
  let queues = Array.init k (fun _ -> Queue.create ()) in
  let cursor = Array.make n 0 in
  let assigned = ref 0 in
  let claim p v =
    owner.(v) <- p;
    sizes.(p) <- sizes.(p) + 1;
    incr assigned;
    Queue.push v queues.(p)
  in
  for p = 0 to k - 1 do
    (* seeds at p*n/k are pairwise distinct for k <= n *)
    claim p (p * n / k)
  done;
  (* One claim per region per turn. [step p] pops exhausted frontier
     nodes until it can claim a neighbour, or the frontier runs dry. *)
  let rec step p =
    if Queue.is_empty queues.(p) then false
    else begin
      let v = Queue.peek queues.(p) in
      let row = adj.(v) in
      let len = Array.length row in
      let rec scan () =
        if cursor.(v) >= len then begin
          ignore (Queue.pop queues.(p));
          step p
        end
        else begin
          let u = row.(cursor.(v)) in
          cursor.(v) <- cursor.(v) + 1;
          if owner.(u) >= 0 then scan ()
          else begin
            claim p u;
            true
          end
        end
      in
      scan ()
    end
  in
  let next_unclaimed = ref 0 in
  while !assigned < n do
    let progress = ref false in
    for p = 0 to k - 1 do
      if sizes.(p) < cap && step p then progress := true
    done;
    if (not !progress) && !assigned < n then begin
      (* disconnected leftovers: seed the smallest under-cap region *)
      while owner.(!next_unclaimed) >= 0 do
        incr next_unclaimed
      done;
      let best = ref (-1) in
      for p = 0 to k - 1 do
        if sizes.(p) < cap && (!best < 0 || sizes.(p) < sizes.(!best)) then
          best := p
      done;
      claim !best !next_unclaimed
    end
  done;
  owner

(* --- halos and shard assembly ----------------------------------------- *)

(* Multi-source BFS from a shard's owned set, truncated at [radius]:
   a node is within distance r of some owned node iff it lies in some
   owned node's r-ball, so the reached set is exactly owned ∪ ghost. *)
let members_of csr owner ~p ~radius =
  let n = Csr.n csr in
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  let touched = ref [] in
  for v = 0 to n - 1 do
    if owner.(v) = p then begin
      dist.(v) <- 0;
      touched := v :: !touched;
      Queue.push v q
    end
  done;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let d = dist.(v) in
    if d < radius then
      Csr.iter_neighbours csr v (fun u ->
          if dist.(u) < 0 then begin
            dist.(u) <- d + 1;
            touched := u :: !touched;
            Queue.push u q
          end)
  done;
  Array.of_list !touched

(* The shard's graph speaks dense indices 0..ns-1; [ids] maps back. *)
let local_graph sub =
  let offsets, targets, _ = Csr.export sub in
  Graph.of_rows ~ids:(Array.init (Csr.n sub) Fun.id) ~offsets ~targets

let make csr ~k ~radius =
  if radius < 0 then invalid_arg "Partition.make: negative radius";
  let n = Csr.n csr in
  let k = max 1 (min k (max 1 n)) in
  if n = 0 then
    [|
      {
        index = 0;
        count = 1;
        radius;
        graph = Graph.empty;
        ids = [||];
        owned = [||];
      };
    |]
  else begin
    let owner = partition_owners csr ~k in
    Array.init k (fun p ->
        let members = members_of csr owner ~p ~radius in
        let sub, old_of_new = Csr.extract_subgraph csr members in
        let ns = Csr.n sub in
        let ids = Array.init ns (fun i -> Csr.node sub i) in
        let owned = Array.map (fun old -> owner.(old) = p) old_of_new in
        { index = p; count = k; radius; graph = local_graph sub; ids; owned })
  end

let closure_ok csr s =
  match Csr.n csr with
  | 0 -> shard_n s = 0
  | _ ->
      let scratch = Csr.scratch csr in
      let in_shard = Hashtbl.create (2 * shard_n s) in
      Array.iter (fun v -> Hashtbl.replace in_shard v ()) s.ids;
      let ok = ref true in
      Array.iteri
        (fun i own ->
          if !ok && own then begin
            match Csr.index_opt csr s.ids.(i) with
            | None -> ok := false
            | Some centre ->
                let count = Csr.ball csr scratch ~centre ~radius:s.radius in
                for j = 0 to count - 1 do
                  let v = Csr.node csr (Csr.visited scratch j) in
                  if not (Hashtbl.mem in_shard v) then ok := false
                done
          end)
        s.owned;
      !ok

let check csr shards =
  let e fmt = Printf.ksprintf Result.error fmt in
  let k = Array.length shards in
  if k = 0 then e "no shards"
  else begin
    let n = Csr.n csr in
    let owner_seen = Hashtbl.create (2 * n) in
    let err = ref (Ok ()) in
    Array.iteri
      (fun p s ->
        if !err = Ok () && s.count <> k then
          err := e "shard %d claims count %d, have %d shards" p s.count k;
        if !err = Ok () && s.index <> p then
          err := e "shard at position %d claims index %d" p s.index;
        if !err = Ok () && s.radius <> shards.(0).radius then
          err := e "shard %d radius %d differs from shard 0" p s.radius;
        Array.iteri
          (fun i own ->
            if !err = Ok () && own then begin
              let v = s.ids.(i) in
              match Hashtbl.find_opt owner_seen v with
              | Some q -> err := e "node %d owned by shards %d and %d" v q p
              | None -> Hashtbl.replace owner_seen v p
            end)
          s.owned;
        if !err = Ok () && not (closure_ok csr s) then
          err := e "shard %d ghost closure is not exact" p)
      shards;
    match !err with
    | Error _ as x -> x
    | Ok () ->
        if Hashtbl.length owner_seen <> n then
          e "%d of %d nodes owned" (Hashtbl.length owner_seen) n
        else Ok ()
  end

let proof_slice s proof =
  let acc = ref Proof.empty in
  Array.iteri
    (fun i v ->
      let bits = Proof.get proof v in
      if Bits.length bits > 0 then acc := Proof.set !acc i bits)
    s.ids;
  !acc

(* --- shard files ------------------------------------------------------- *)

let to_string s =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "lcp-shard 1\n";
  Buffer.add_string buf (Printf.sprintf "shard %d/%d\n" s.index s.count);
  Buffer.add_string buf (Printf.sprintf "radius %d\n" s.radius);
  Buffer.add_string buf (Printf.sprintf "nodes %d\n" (shard_n s));
  Buffer.add_string buf "ids";
  Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %d" v)) s.ids;
  Buffer.add_char buf '\n';
  Buffer.add_string buf "owned ";
  Array.iter (fun o -> Buffer.add_char buf (if o then '1' else '0')) s.owned;
  Buffer.add_char buf '\n';
  Buffer.add_string buf "graph6 ";
  Buffer.add_string buf (Graph6.encode s.graph);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let of_string text =
  let e fmt = Printf.ksprintf Result.error fmt in
  let ( let* ) = Result.bind in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  let field name = function
    | line :: rest ->
        let prefix = name ^ " " in
        let pl = String.length prefix in
        if String.length line >= pl && String.sub line 0 pl = prefix then
          Ok (String.sub line pl (String.length line - pl), rest)
        else e "expected %S line, got %S" name line
    | [] -> e "truncated shard file: missing %S" name
  in
  let int_of s =
    match int_of_string_opt (String.trim s) with
    | Some v -> Ok v
    | None -> e "bad integer %S" s
  in
  match lines with
  | magic :: rest when magic = "lcp-shard 1" ->
      let* pos, rest = field "shard" rest in
      let* index, count =
        match String.index_opt pos '/' with
        | Some i ->
            let* a = int_of (String.sub pos 0 i) in
            let* b =
              int_of (String.sub pos (i + 1) (String.length pos - i - 1))
            in
            Ok (a, b)
        | None -> e "bad shard position %S" pos
      in
      let* radius_s, rest = field "radius" rest in
      let* radius = int_of radius_s in
      let* nodes_s, rest = field "nodes" rest in
      let* ns = int_of nodes_s in
      let* ids_s, rest = field "ids" rest in
      let* ids =
        let parts =
          String.split_on_char ' ' ids_s |> List.filter (fun s -> s <> "")
        in
        let rec go acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | p :: tl ->
              let* v = int_of p in
              go (v :: acc) tl
        in
        go [] parts
      in
      let* owned_s, rest = field "owned" rest in
      let* g6, rest = field "graph6" rest in
      let* () = match rest with [] -> Ok () | l :: _ -> e "trailing line %S" l in
      if count < 1 || index < 0 || index >= count then
        e "shard position %d/%d out of range" index count
      else if radius < 0 then e "negative radius"
      else if Array.length ids <> ns then
        e "ids count %d, want %d" (Array.length ids) ns
      else if String.length owned_s <> ns then
        e "owned bitmap length %d, want %d" (String.length owned_s) ns
      else begin
        let mono = ref true in
        Array.iteri
          (fun i v ->
            if v < 0 || (i > 0 && v <= ids.(i - 1)) then mono := false)
          ids;
        if not !mono then e "ids not strictly increasing"
        else begin
          let owned = Array.make ns false in
          let bad = ref None in
          String.iteri
            (fun i c ->
              match c with
              | '1' -> owned.(i) <- true
              | '0' -> ()
              | c -> if !bad = None then bad := Some c)
            owned_s;
          match !bad with
          | Some c -> e "bad owned bit %C" c
          | None ->
              let* graph = Graph6.decode_res g6 in
              if Graph.n graph <> ns then
                e "graph has %d nodes, header says %d" (Graph.n graph) ns
              else Ok { index; count; radius; graph; ids; owned }
        end
      end
  | l :: _ -> e "bad magic %S" l
  | [] -> e "empty shard file"
