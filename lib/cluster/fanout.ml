(* Scatter-gather client for partitioned verification: one thread and
   one connection per shard, merged back into a whole-graph verdict.

   The cut happens here, on the client, by design: the router never
   decodes a graph6 payload, so the only process that ever pays the
   quadratic whole-graph encode cost is the one that already holds the
   graph. Each leg carries its own correlation id and survives one
   transport retry on a fresh connection; anything else — a typed
   backend error, a malformed reply — is final for the whole verify,
   but only reported after every leg has been joined, so a slow shard
   is never orphaned mid-flight. *)

type verdict = {
  all_accept : bool;
  owned : int;
  rejected : int;
  rejecting : int list;
  shards : int;
}

type leg = Summary of { owned : int; rejected : int; rejecting : int list }

let request_of_shard ~scheme ~proof (s : Partition.shard) =
  Wire.Verify_partition
    {
      scheme;
      graph6 = Graph6.encode s.Partition.graph;
      ids = s.Partition.ids;
      owned = Bits.of_bools (Array.to_list s.Partition.owned);
      proof = Partition.proof_slice s proof;
      radius = s.Partition.radius;
      shard_index = s.Partition.index;
      shard_count = s.Partition.count;
    }

(* One leg: connect, call, close — retried once on transport failure
   (a router retries upstream legs itself, but a bare daemon does
   not, and the second attempt costs one small frame). *)
let run_leg ~host ~port req =
  let once () =
    match Client.connect ~host ~port () with
    | Error _ as e -> e
    | Ok c ->
        let r = Client.call c req in
        Client.close c;
        r
  in
  let outcome = match once () with Error _ -> once () | r -> r in
  match outcome with
  | Error m -> Error (Printf.sprintf "transport: %s" m)
  | Ok (Wire.Partition_verified { all_accept = _; owned; rejected; rejecting })
    ->
      Ok (Summary { owned; rejected; rejecting })
  | Ok (Wire.Error_reply { code; message }) ->
      Error
        (Printf.sprintf "backend: %s: %s"
           (Wire.error_code_to_string code)
           message)
  | Ok _ -> Error "backend answered a shard with a non-partition response"

let verify ?(host = "127.0.0.1") ?(endpoints = []) ~port ~scheme ~csr ~proof
    ~radius ~k () =
  let endpoints = if endpoints = [] then [ (host, port) ] else endpoints in
  match
    let shards = Partition.make csr ~k ~radius in
    Result.map (fun () -> shards) (Partition.check csr shards)
  with
  | exception Invalid_argument m -> Error m
  | Error m -> Error (Printf.sprintf "partition check failed: %s" m)
  | Ok shards ->
      let n = Array.length shards in
      Obs.Trace.span_arg "fanout.verify" "shards" n @@ fun () ->
      let reqs =
        try Ok (Array.map (request_of_shard ~scheme ~proof) shards)
        with Invalid_argument m -> Error m
      in
      Result.bind reqs @@ fun reqs ->
      Obs.Trace.instant ~arg_name:"legs" ~arg:n "fanout.scatter";
      let results = Array.make n (Error "leg never ran") in
      let ep = List.length endpoints in
      let threads =
        Array.mapi
          (fun i req ->
            let host, port = List.nth endpoints (i mod ep) in
            Thread.create (fun () -> results.(i) <- run_leg ~host ~port req) ())
          reqs
      in
      Array.iter Thread.join threads;
      let merged =
        Array.fold_left
          (fun acc r ->
            match (acc, r) with
            | (Error _ as e), _ -> e
            | Ok _, Error m -> Error m
            | Ok (o, rj, rjs), Ok (Summary s) ->
                Ok (o + s.owned, rj + s.rejected, s.rejecting :: rjs))
          (Ok (0, 0, []))
          (Array.mapi
             (fun i r ->
               Result.map_error (Printf.sprintf "shard %d/%d: %s" i n) r)
             results)
      in
      Result.map
        (fun (owned, rejected, rejecting) ->
          {
            all_accept = rejected = 0;
            owned;
            rejected;
            rejecting =
              Wire.rejecting_sample
                (List.sort_uniq compare (List.concat rejecting));
            shards = n;
          })
        merged
