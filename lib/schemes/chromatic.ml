(** LCP(O(log k)): chromatic number ≤ k (Section 2.2). The proof is a
    proper k-colouring, [⌈log k⌉] bits per node; [k] itself is global
    input shared by all nodes. *)

let globals_of_k k =
  let buf = Bits.Writer.create () in
  Bits.Writer.int_gamma buf k;
  Bits.Writer.contents buf

let k_of_globals view =
  let cur = Bits.Reader.of_bits (View.globals view) in
  let k = Bits.Reader.int_gamma cur in
  k

(** Attach the global [k] to an instance. *)
let instance_with_k g k = Instance.with_globals (Instance.of_graph g) (globals_of_k k)

let scheme =
  Scheme.make ~name:"chromatic-le-k" ~radius:1
    ~size_bound:(fun n -> (2 * Bits.int_width (max 1 n)) + 1)
    ~prover:(fun inst ->
      match Bits.Reader.int_gamma (Bits.Reader.of_bits (Instance.globals inst)) with
      | exception Bits.Reader.Decode_error _ -> None (* no k given *)
      | k -> (
          match Coloring.k_colouring (Instance.graph inst) k with
          | None -> None
          | Some colouring ->
              let width = Bits.int_width (max 1 (k - 1)) in
              Some
                (List.fold_left
                   (fun p (v, c) ->
                     let buf = Bits.Writer.create () in
                     Bits.Writer.int_fixed buf ~width c;
                     Proof.set p v (Bits.Writer.contents buf))
                   Proof.empty colouring)))
    ~verifier:(fun view ->
      let k = k_of_globals view in
      let width = Bits.int_width (max 1 (k - 1)) in
      let colour_of u =
        let cur = Bits.Reader.of_bits (View.proof_of view u) in
        let c = Bits.Reader.int_fixed cur ~width in
        Bits.Reader.expect_end cur;
        c
      in
      let v = View.centre view in
      let mine = colour_of v in
      mine < k
      && List.for_all (fun u -> colour_of u <> mine) (View.neighbours view v))

