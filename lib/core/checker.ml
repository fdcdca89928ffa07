type completeness_report = {
  instances_checked : int;
  all_accepted : bool;
  max_proof_bits : int;
  bound_respected : bool;
  failures : string list;
}

let completeness scheme instances =
  let report =
    {
      instances_checked = 0;
      all_accepted = true;
      max_proof_bits = 0;
      bound_respected = true;
      failures = [];
    }
  in
  List.fold_left
    (fun report inst ->
      let report = { report with instances_checked = report.instances_checked + 1 } in
      match Scheme.prove_and_check scheme inst with
      | `No_proof ->
          {
            report with
            all_accepted = false;
            failures =
              Printf.sprintf "%s: prover returned None on a yes-instance (n=%d)"
                scheme.Scheme.name (Instance.n inst)
              :: report.failures;
          }
      | `Rejected (_, vs) ->
          {
            report with
            all_accepted = false;
            failures =
              Printf.sprintf "%s: nodes [%s] rejected a valid proof (n=%d)"
                scheme.Scheme.name
                (String.concat "," (List.map string_of_int vs))
                (Instance.n inst)
              :: report.failures;
          }
      | `Accepted proof ->
          let bits = Proof.size proof in
          let bound = scheme.Scheme.size_bound (Instance.n inst) in
          let ok = bits <= bound in
          {
            report with
            max_proof_bits = max report.max_proof_bits bits;
            bound_respected = report.bound_respected && ok;
            failures =
              (if ok then report.failures
               else
                 Printf.sprintf "%s: proof of %d bits exceeds bound %d (n=%d)"
                   scheme.Scheme.name bits bound (Instance.n inst)
                 :: report.failures);
          })
    report instances

(* Observability: every random forgery attempt counts once, and lands
   in exactly one of the rejected/accepted counters; the first accepted
   forgery also leaves an instant on the trace timeline (the samplers
   below stop there). *)
let m_samples = Obs.Metrics.counter "checker.samples"
let m_rejected = Obs.Metrics.counter "checker.forgeries_rejected"
let m_accepted = Obs.Metrics.counter "checker.forgeries_accepted"

(* Trial [i] of a forgery run: a random proof giving each node a string
   of uniform length [0..max_bits], drawn from a stream keyed by
   [(seed, i)] only — so trial [i] forges the same proof at any [jobs] —
   and whether the scheme's full verifier accepts it. *)
let forger ~seed ~max_bits scheme inst =
  let compiled = Simulator.compile inst in
  let nodes = Graph.nodes (Instance.graph inst) in
  let forge i =
    let st = Random.State.make [| seed; i |] in
    let proof =
      List.fold_left
        (fun p v ->
          let len = Random.State.int st (max_bits + 1) in
          Proof.set p v (Bits.random st len))
        Proof.empty nodes
    in
    ( proof,
      Simulator.all_accept compiled proof ~radius:scheme.Scheme.radius
        scheme.Scheme.verifier )
  in
  (compiled, forge)

(* Run [trial 0 .. samples-1] until one returns [false]: in order when
   [jobs <= 1], otherwise fanned out over a [jobs]-domain pool whose
   workers bail out once any trial has stopped the run. True when no
   trial stopped it. *)
let run_trials ~jobs ~samples trial =
  let stopped = Atomic.make false in
  let range lo hi =
    let i = ref lo in
    while (not (Atomic.get stopped)) && !i < hi do
      if not (trial !i) then Atomic.set stopped true;
      incr i
    done
  in
  Pool.run ~jobs (function
    | None -> range 0 samples
    | Some pool ->
        Pool.parallel_for pool ~chunks:(Pool.size pool) ~n:samples
          (fun _c lo hi -> range lo hi));
  not (Atomic.get stopped)

let soundness_random_body ~seed ~jobs scheme inst ~samples ~max_bits =
  let _, forge = forger ~seed ~max_bits scheme inst in
  run_trials ~jobs ~samples (fun i ->
      Obs.Metrics.incr m_samples;
      let _, accepted = forge i in
      if accepted then begin
        Obs.Metrics.incr m_accepted;
        Obs.Trace.instant "checker.first_accept"
      end
      else Obs.Metrics.incr m_rejected;
      not accepted)

let soundness_random ?(seed = 0xC0FFEE) ?(jobs = 1) scheme inst ~samples ~max_bits
    =
  let run () = soundness_random_body ~seed ~jobs scheme inst ~samples ~max_bits in
  if !Obs.Trace.enabled then
    Obs.Trace.span_arg "checker.soundness_random" "samples" samples run
  else run ()

(* --- empirical one-sided error of a sampled verifier ----------------- *)

type empirical = {
  trials : int;
  invalid : int;
  fooled : int;
  rate : float;
  wilson_low : float;
  wilson_high : float;
}

(* Wilson score interval at 95% (z = 1.96). Degenerates to [0, 1] when
   no trial produced an invalid proof — nothing was measured. *)
let wilson ~fooled ~invalid =
  if invalid = 0 then (0.0, 1.0)
  else begin
    let z = 1.96 in
    let n = float_of_int invalid in
    let p = float_of_int fooled /. n in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let centre = p +. (z2 /. (2.0 *. n)) in
    let half =
      z *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n)))
    in
    (max 0.0 ((centre -. half) /. denom), min 1.0 ((centre +. half) /. denom))
  end

let m_empirical_trials = Obs.Metrics.counter "checker.empirical_trials"
let m_empirical_fooled = Obs.Metrics.counter "checker.empirical_fooled"

let soundness_empirical ?(seed = 0xE9C0) ?(jobs = 1) scheme inst ~samples
    ~max_bits ~sampled =
  let compiled, forge = forger ~seed ~max_bits scheme inst in
  let invalid = Atomic.make 0 in
  let fooled = Atomic.make 0 in
  (* the sampled-run seed, like the proof, derives from (seed, i) only,
     so the measured counts are identical at any [jobs] *)
  ignore
    (run_trials ~jobs ~samples (fun i ->
         Obs.Metrics.incr m_empirical_trials;
         let proof, valid = forge i in
         if not valid then begin
           Atomic.incr invalid;
           if sampled ~seed:(seed lxor ((i + 1) * 0x9E3779B1)) compiled proof
           then begin
             Obs.Metrics.incr m_empirical_fooled;
             Atomic.incr fooled
           end
         end;
         true));
  let invalid = Atomic.get invalid and fooled = Atomic.get fooled in
  let low, high = wilson ~fooled ~invalid in
  {
    trials = samples;
    invalid;
    fooled;
    rate = (if invalid = 0 then 0.0 else float_of_int fooled /. float_of_int invalid);
    wilson_low = low;
    wilson_high = high;
  }

(* All bit strings of length 0..max_bits, shortest first. *)
let all_strings max_bits =
  let rec go len acc =
    if len > max_bits then List.rev acc
    else begin
      let count = 1 lsl len in
      let strings =
        List.init count (fun i ->
            Bits.of_bools (List.init len (fun j -> i lsr (len - 1 - j) land 1 = 1)))
      in
      go (len + 1) (List.rev_append strings acc)
    end
  in
  go 0 []

let soundness_exhaustive scheme inst ~max_bits =
  let nodes = Array.of_list (Graph.nodes (Instance.graph inst)) in
  let n = Array.length nodes in
  let choices = Array.of_list (all_strings max_bits) in
  let k = Array.length choices in
  let rec go i proof =
    if i = n then not (Scheme.accepts scheme inst proof)
    else begin
      let rec try_choice c =
        if c = k then true
        else if go (i + 1) (Proof.set proof nodes.(i) choices.(c)) then
          try_choice (c + 1)
        else false
      in
      try_choice 0
    end
  in
  go 0 Proof.empty

let prover_refuses scheme inst = scheme.Scheme.prover inst = None
