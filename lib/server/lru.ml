(* A small LRU map for the compiled-verifier cache.

   Design point: capacities here are catalogue-sized (tens to a few
   hundred compiled CSR images), so instead of the classic intrusive
   doubly-linked list this uses a hash table whose entries carry a
   monotonically increasing use stamp — O(1) lookups and inserts, and
   an O(capacity) scan only when a full cache must evict. That keeps
   the code obviously correct (no pointer surgery) at a cost that is
   noise next to the graph compile the cache exists to avoid.

   Not thread-safe: the server serialises access with its own mutex
   (workers on several domains share one cache). *)

type 'a entry = { mutable value : 'a; mutable stamp : int }

type 'a t = {
  capacity : int;
  tbl : (string, 'a entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  {
    capacity;
    tbl = Hashtbl.create (max 16 capacity);
    clock = 0;
    hits = 0;
  }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      e.stamp <- tick t;
      t.hits <- t.hits + 1;
      Some e.value
  | None -> None

let evict_oldest t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, stamp) when stamp <= e.stamp -> acc
        | _ -> Some (key, e.stamp))
      t.tbl None
  in
  match victim with
  | Some (key, _) -> Hashtbl.remove t.tbl key
  | None -> ()

let put t key value =
  if t.capacity > 0 then
    match Hashtbl.find_opt t.tbl key with
    | Some e ->
        e.value <- value;
        e.stamp <- tick t
    | None ->
        if Hashtbl.length t.tbl >= t.capacity then evict_oldest t;
        Hashtbl.add t.tbl key { value; stamp = tick t }

let length t = Hashtbl.length t.tbl
let hits t = t.hits
