(** Growth-class estimation for measured proof sizes. The benchmark
    harness measures [s(n)] for each scheme over a sweep of instance
    sizes and asks which row of Table 1 the series matches:
    0, Θ(1), Θ(log n), Θ(n), Θ(n²), or Θ(n²/log n). *)

type growth =
  | Zero
  | Constant
  | Logarithmic
  | Linear
  | Quadratic
  | Quadratic_over_log

val label : growth -> string
(** "0", "Θ(1)", "Θ(log n)", "Θ(n)", "Θ(n²)", "Θ(n²/log n)". *)

val classify : (int * int) list -> growth
(** [classify [(n, bits); …]] picks the model minimising the relative
    spread of [bits / model n] over the series. All-zero series
    classify as [Zero]; needs at least two distinct [n] for a
    meaningful answer. *)

