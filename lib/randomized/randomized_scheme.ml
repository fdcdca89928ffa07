type t = {
  base : Scheme.t;
  epsilon : float;
  queries : int;
  probes : int;
  budget : string;
  sampled_verifier : Qview.t -> bool;
}

let make ~base ~epsilon ~queries ~probes ~sampled_verifier =
  if queries < 1 then invalid_arg "Randomized_scheme.make: queries must be >= 1";
  if probes < 0 then invalid_arg "Randomized_scheme.make: probes must be >= 0";
  if not (epsilon > 0.0 && epsilon < 1.0) then
    invalid_arg "Randomized_scheme.make: epsilon must lie in (0, 1)";
  {
    base;
    epsilon;
    queries;
    probes;
    budget = Printf.sprintf "eps%g:q%d:m%d" epsilon queries probes;
    sampled_verifier;
  }

type outcome = {
  accepted : bool;
  rejecting : Graph.node list;
  nodes_checked : int;
  bits_read : int;
  reads : (Graph.node * (Graph.node * int * int) list) list;
}

(* The probe set comes from its own PRG lane (tweaked so it never
   collides with the per-node read streams) over dense CSR indices:
   O(probes log probes), no O(n) allocation on the serving path. *)
let probe_nodes t compiled ~seed =
  let csr = Instance.csr compiled in
  let n = Csr.n csr in
  if n = 0 then [||]
  else if t.probes = 0 || 2 * t.probes >= n then
    Array.init n (fun i -> Csr.node csr i)
  else begin
    let state = ref (Qview.mix (seed lxor 0x5EED1E55)) in
    let next () =
      state := (!state + Qview.gamma) land max_int;
      Qview.mix !state
    in
    let module IS = Set.Make (Int) in
    (* draw with replacement, dedupe; probes <= n/2 keeps the expected
       draw count under 1.4·probes, and the cap keeps it total *)
    let rec draw set k =
      if IS.cardinal set >= t.probes || k >= 16 * t.probes then set
      else draw (IS.add (next () mod n) set) (k + 1)
    in
    let set = draw IS.empty 0 in
    Array.of_list (List.map (fun i -> Csr.node csr i) (IS.elements set))
  end

let run ?(jobs = 1) ?arena ?(collect_reads = false) t compiled proof ~seed
    ~queries =
  if queries < 1 then invalid_arg "Randomized_scheme.run: queries must be >= 1";
  let nodes = probe_nodes t compiled ~seed in
  let bits = Atomic.make 0 in
  let mu = Mutex.create () in
  let logs = ref [] in
  (* reads count even when the verifier raises; the sweep turns a
     decode error into a reject *)
  let verifier view =
    let qv = Qview.make view ~seed ~queries in
    Fun.protect (fun () -> t.sampled_verifier qv) ~finally:(fun () ->
        ignore (Atomic.fetch_and_add bits (Qview.bits_read qv));
        if collect_reads then begin
          Mutex.lock mu;
          logs := (Qview.centre qv, Qview.reads qv) :: !logs;
          Mutex.unlock mu
        end)
  in
  let verdicts =
    Simulator.run_verifier_on ~jobs ?arena compiled proof
      ~radius:t.base.Scheme.radius ~nodes verifier
  in
  let rejecting = Simulator.rejecting verdicts in
  {
    accepted = rejecting = [];
    rejecting;
    nodes_checked = Array.length nodes;
    bits_read = Atomic.get bits;
    reads =
      (if collect_reads then
         List.sort (fun (a, _) (b, _) -> compare a b) !logs
       else []);
  }

type verdict = { probe : outcome; final : Graph.node list option }

(* The serving rule: a sampled accept stands, a sampled reject is only
   a suspicion and escalates to the base verifier at every node, on
   the same compiled instance and arena. *)
let verify ?jobs ?arena t compiled proof ~seed ~queries =
  let probe = run ?jobs ?arena t compiled proof ~seed ~queries in
  if probe.accepted then { probe; final = None }
  else
    let verdicts =
      Simulator.run_compiled ?jobs ?arena compiled proof
        ~radius:t.base.Scheme.radius t.base.Scheme.verifier
    in
    { probe; final = Some (Simulator.rejecting verdicts) }

let soundness ?(seed = 0xBAD5EED) ?(jobs = 1) ?queries t inst ~samples
    ~max_bits =
  let queries = match queries with Some q -> q | None -> t.queries in
  Checker.soundness_empirical ~seed ~jobs t.base inst ~samples ~max_bits
    ~sampled:(fun ~seed compiled proof ->
      (run t compiled proof ~seed ~queries).accepted)
