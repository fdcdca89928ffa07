module IntMap = Map.Make (Int)

type t = Bits.t IntMap.t

let empty = IntMap.empty
let of_list l = List.fold_left (fun m (v, b) -> IntMap.add v b m) IntMap.empty l
let bindings = IntMap.bindings
let get p v = Option.value ~default:Bits.empty (IntMap.find_opt v p)
let set p v b = IntMap.add v b p
let size p = IntMap.fold (fun _ b acc -> max acc (Bits.length b)) p 0

let union_disjoint p1 p2 =
  IntMap.union
    (fun v b1 b2 ->
      if Bits.equal b1 b2 then Some b1
      else
        invalid_arg
          (Printf.sprintf "Proof.union_disjoint: node %d assigned twice" v))
    p1 p2

let map f p = IntMap.mapi f p
(* Unassigned nodes read as the empty string, so proofs are compared up
   to explicit-ε bindings. *)
let equal p1 p2 =
  let nonempty p =
    IntMap.filter (fun _ b -> Bits.length b > 0) p
  in
  IntMap.equal Bits.equal (nonempty p1) (nonempty p2)

let pp ppf p =
  Format.fprintf ppf "@[<hov 2>proof{%a}@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf (v, b) -> Format.fprintf ppf "%d↦%a" v Bits.pp b))
    (bindings p)
