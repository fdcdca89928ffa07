(** LCP(0) builders for locally checkable labellings (Naor–Stockmeyer;
    Table 1(b)). An LCL problem is given by a radius and a local
    constraint on labelled views; its solutions are verifiable with no
    proof at all, which is exactly the class LCP(0) of this paper
    (Section 3). *)

(* The prover has nothing to certify, but it still knows the answer:
   an instance whose labelling breaks the constraint at some node is a
   no-instance, refused like any other prover refuses one. *)
let of_constraint ~name ~radius ~check =
  Scheme.make ~name ~radius
    ~size_bound:(fun _ -> 0)
    ~prover:(fun inst ->
      if Simulator.all_accept (Simulator.compile inst) Proof.empty ~radius check
      then Some Proof.empty
      else None)
    ~verifier:check

(** Solutions of "proper colouring with labels" — node labels carry the
    colour, no proof bits. *)
let proper_colouring =
  of_constraint ~name:"lcl-proper-colouring" ~radius:1 ~check:(fun view ->
      let v = View.centre view in
      let mine = View.label_of view v in
      List.for_all
        (fun u -> not (Bits.equal (View.label_of view u) mine))
        (View.neighbours view v))

(** Solutions of "maximal independent set": label bit 1 marks the set. *)
let maximal_independent_set =
  of_constraint ~name:"lcl-mis" ~radius:1 ~check:(fun view ->
      let in_set u =
        let l = View.label_of view u in
        Bits.length l >= 1 && Bits.get l 0
      in
      let v = View.centre view in
      let neighbours = View.neighbours view v in
      if in_set v then List.for_all (fun u -> not (in_set u)) neighbours
      else List.exists in_set neighbours)

(** The agreement problem — all nodes share one label. Trivially in
    LCP(0) in this paper's model, but {e not} solvable with empty
    proofs in the weaker proof-labelling-scheme model of Korman et al.
    (Section 3.2); the model-separation test exercises this. *)
let agreement =
  of_constraint ~name:"lcl-agreement" ~radius:1 ~check:(fun view ->
      let v = View.centre view in
      let mine = View.label_of view v in
      List.for_all
        (fun u -> Bits.equal (View.label_of view u) mine)
        (View.neighbours view v))
