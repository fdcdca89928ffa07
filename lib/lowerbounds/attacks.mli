(** The six lower-bound attacks that pair an undersized-but-complete
    scheme with the honest scheme of the paper's size: [lcp attack]
    runs one, the bench runs every one against both schemes. *)

type result = Fooled | Resisted | Prover_failed

type t = {
  name : string;  (** The [lcp attack] argument, e.g. "gluing-odd". *)
  section : string;  (** The paper section, as the bench heads it. *)
  undersized : string * Scheme.t;  (** A label and the scheme. *)
  honest : string * Scheme.t;
  family : string Lazy.t option;  (** The enumerated fooling set and its size. *)
  run : ?n:int -> Scheme.t -> result * (Format.formatter -> unit);
      (** Attack a scheme: the outcome and its one-line report. [n] is
          the cycle length of the gluing attacks (rounded up to odd
          where the family needs it); the others ignore it. *)
}

val all : t list
(** Gluing (odd n, leader, maximum matching), symmetry, trees,
    non-3-colourability — in paper order. *)
