(* Order statistics over float samples. *)

(* Linear interpolation between closest ranks (numpy's default);
   [nan] on an empty sample. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

(* 0 instead of nan, for rows a workload does not exercise. *)
let or_zero x = if Float.is_nan x then 0.0 else x
