exception Budget_exceeded of { centre : Graph.node; queries : int }

let kind_proof_bit = 0
let kind_proof_cell = 1
let kind_edge_cell = 3

(* splitmix64-style finalizer truncated to OCaml's 63-bit int — the
   same construction Obs.Trace uses for head sampling. Pure, so every
   worker domain computing the same (seed, centre, draw) lands on the
   same value: that is what makes the read set jobs-independent. *)
let mix x =
  let h = ref (x * 0x4F1BBCDCBFA53E0B) in
  h := (!h lxor (!h lsr 30)) * 0x2545F4914F6CDD1D;
  h := (!h lxor (!h lsr 27)) * 0x7FB5D329728EA185;
  (!h lxor (!h lsr 31)) land max_int

let gamma = 0x2545F4914F6CDD1D

type t = {
  view : View.t;
  queries : int;
  mutable state : int;
  mutable spent : int;
  mutable bits : int;
  mutable log : (Graph.node * int * int) list; (* newest first *)
}

let make view ~seed ~queries =
  if queries < 1 then invalid_arg "Qview.make: queries must be >= 1";
  {
    view;
    queries;
    state = mix (seed lxor mix (View.centre view));
    spent = 0;
    bits = 0;
    log = [];
  }

let centre t = View.centre t.view
let neighbours t = View.neighbours t.view (View.centre t.view)
let my_label t = View.label_of t.view (View.centre t.view)

let charge t ~node ~kind ~index ~bits =
  if t.spent >= t.queries then
    raise (Budget_exceeded { centre = View.centre t.view; queries = t.queries });
  t.spent <- t.spent + 1;
  t.bits <- t.bits + bits;
  t.log <- (node, kind, index) :: t.log

let proof_bit t u i =
  let b = View.proof_of t.view u in
  charge t ~node:u ~kind:kind_proof_bit ~index:i ~bits:1;
  if Bits.length b > i then Some (Bits.get b i) else None

let proof_cell t u =
  let b = View.proof_of t.view u in
  charge t ~node:u ~kind:kind_proof_cell ~index:0 ~bits:(Bits.length b);
  b

let edge_cell t u v =
  let b = View.edge_label_of t.view u v in
  charge t ~node:u ~kind:kind_edge_cell ~index:v ~bits:(Bits.length b);
  b

let rand_int t bound =
  if bound <= 0 then invalid_arg "Qview.rand_int: bound must be positive";
  t.state <- (t.state + gamma) land max_int;
  mix t.state mod bound

let sample_neighbours t k =
  let ns = Array.of_list (neighbours t) in
  let deg = Array.length ns in
  let k = min k deg in
  if k <= 0 then []
  else begin
    (* partial Fisher–Yates over the (sorted) neighbour array: the
       chosen subset depends only on the PRG stream *)
    for i = 0 to k - 1 do
      let j = i + rand_int t (deg - i) in
      let tmp = ns.(i) in
      ns.(i) <- ns.(j);
      ns.(j) <- tmp
    done;
    Array.to_list (Array.sub ns 0 k)
  end

let units_left t = t.queries - t.spent
let bits_read t = t.bits
let reads t = List.rev t.log
