module IntMap = Map.Make (Int)

(* [dense.(v)] binds every id [v] in [0 .. k-1]; [overlay] binds every
   other id and every [set] made since, and wins where both bind. A
   decoded proof is all [dense] and reads by index; a prover's proof is
   all [overlay] and grows by O(log n) [set]s. *)
type t = { dense : Bits.t array; overlay : Bits.t IntMap.t }

let empty = { dense = [||]; overlay = IntMap.empty }
let of_dense dense = { dense; overlay = IntMap.empty }
let of_map overlay = { dense = [||]; overlay }
let of_list l = of_map (List.fold_left (fun m (v, b) -> IntMap.add v b m) IntMap.empty l)

let of_csr csr a =
  let n = Csr.n csr in
  if n = 0 || Csr.node csr (n - 1) = n - 1 then of_dense a
  else
    let m = ref IntMap.empty in
    Array.iteri (fun i b -> m := IntMap.add (Csr.node csr i) b !m) a;
    of_map !m

let in_dense p v = v >= 0 && v < Array.length p.dense

let get p v =
  if IntMap.is_empty p.overlay then
    if in_dense p v then Array.unsafe_get p.dense v else Bits.empty
  else
    match IntMap.find v p.overlay with
    | b -> b
    | exception Not_found -> if in_dense p v then p.dense.(v) else Bits.empty

let set p v b = { p with overlay = IntMap.add v b p.overlay }

(* Both halves merged in increasing id order, the overlay shadowing
   the dense entry it rebinds. *)
let iter f p =
  let k = Array.length p.dense in
  let next = ref 0 in
  IntMap.iter
    (fun v b ->
      while !next < k && !next < v do
        f !next p.dense.(!next);
        incr next
      done;
      if v = !next then incr next;
      f v b)
    p.overlay;
  for i = !next to k - 1 do
    f i p.dense.(i)
  done

let fold f p acc =
  let acc = ref acc in
  iter (fun v b -> acc := f v b !acc) p;
  !acc

let extent p =
  let top =
    match IntMap.max_binding_opt p.overlay with Some (v, _) -> v + 1 | None -> 0
  in
  max top (Array.length p.dense)

let bindings p = List.rev (fold (fun v b l -> (v, b) :: l) p [])
let size p = fold (fun _ b acc -> max acc (Bits.length b)) p 0
let to_map p = if Array.length p.dense = 0 then p.overlay else fold IntMap.add p IntMap.empty

let union_disjoint p1 p2 =
  of_map
    (IntMap.union
       (fun v b1 b2 ->
         if Bits.equal b1 b2 then Some b1
         else
           invalid_arg
             (Printf.sprintf "Proof.union_disjoint: node %d assigned twice" v))
       (to_map p1) (to_map p2))

let map f p = of_map (IntMap.mapi f (to_map p))

(* Unassigned nodes read as the empty string, so proofs are compared up
   to explicit-ε bindings. *)
let equal p1 p2 =
  let assigned p = fold (fun _ b n -> if Bits.length b > 0 then n + 1 else n) p 0 in
  assigned p1 = assigned p2
  && fold (fun v b ok -> ok && (Bits.length b = 0 || Bits.equal b (get p2 v))) p1 true

let pp ppf p =
  Format.fprintf ppf "@[<hov 2>proof{%a}@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf (v, b) -> Format.fprintf ppf "%d↦%a" v Bits.pp b))
    (bindings p)
