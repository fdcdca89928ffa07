(* Self-tests of the benchmark's own machinery, no processes involved:
   - the same seed yields byte-identical frames and op order;
   - a different seed yields different ones;
   - the oracle (fast simulator) agrees with the reference simulator.

   Run with `python3 perfbench/run.py --selftest`; exits 1 on the
   first failed check. *)

let ops_per_conn = 300
let connections = 2

(* Everything the daemons would see from a workload: every instance's
   graph6 and proofs, then each connection's first ops as encoded
   frames (a partitioned verify as its shard cut). *)
let fingerprint (w : Workload.t) =
  let b = Buffer.create (1 lsl 16) in
  Array.iter
    (fun (i : Workload.inst) ->
      Buffer.add_string b i.Workload.graph6;
      Buffer.add_string b (Format.asprintf "%a|%a" Proof.pp i.Workload.proof Proof.pp i.Workload.tampered))
    w.Workload.instances;
  for conn = 0 to connections - 1 do
    let s = Workload.stream w ~conn in
    for _ = 1 to ops_per_conn do
      let rid, op = Workload.next s in
      Buffer.add_string b (Workload.kind_of op);
      match (op, Workload.request w ~rid op) with
      | _, Some req -> Buffer.add_string b (Wire.encode_request ~id:rid req)
      | Workload.Partition { inst; tampered }, None ->
          let i = w.Workload.instances.(inst) in
          Array.iter
            (fun sh ->
              Buffer.add_string b (Partition.to_string sh);
              Buffer.add_string b
                (Format.asprintf "%a" Proof.pp
                   (Partition.proof_slice sh (Workload.proof_of i tampered))))
            (Partition.make
               (Simulator.compiled_csr i.Workload.compiled)
               ~k:Workload.partition_k ~radius:i.Workload.sch.Scheme.radius)
      | _, None -> ()
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let make name seed = Option.get (Workload.make name ~seed)

(* Valid, tampered and probe-tampered proofs on every instance small
   enough for the reference simulator. *)
let oracle_agrees (w : Workload.t) =
  Array.for_all
    (fun (i : Workload.inst) ->
      i.Workload.n > Workload.reference_max_n
      ||
      let sch = i.Workload.sch and c = i.Workload.compiled in
      let agree p =
        Workload.sorted (Workload.rejecting sch c p)
        = Workload.sorted (Workload.rejecting ~sim:Workload.reference sch c p)
      in
      let probed =
        if i.Workload.scheme = "bipartite" then
          [ fst (Workload.sampled_proof i ~rid:(Workload.rid_of ~conn:0 7) ~tampered:true) ]
        else []
      in
      agree i.Workload.proof
      && agree i.Workload.tampered
      && List.for_all agree probed
      && ((not i.Workload.has_bits) || i.Workload.expect_tampered <> []))
    w.Workload.instances

let () =
  List.iter
    (fun name ->
      let a = make name 1 in
      let fa = fingerprint a in
      check (name ^ ": same seed, identical frames and op order") (fingerprint (make name 1) = fa);
      check (name ^ ": different seed, different frames") (fingerprint (make name 2) <> fa);
      check (name ^ ": oracle agrees with the reference simulator") (oracle_agrees a))
    Workload.names;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
