(* Bit strings are stored as strings of '0'/'1' characters. Proof sizes
   in this library are semantic quantities (numbers of bits reported in
   Table 1), so clarity wins over packing. *)

type t = string

let empty = ""
let length = String.length

let check s =
  String.iter
    (fun c ->
      if c <> '0' && c <> '1' then
        invalid_arg (Printf.sprintf "Bits.of_string: bad character %C" c))
    s;
  s

let of_string s = check s
let to_string s = s

let of_bools bs =
  String.init (List.length bs) (fun _ -> '0')
  |> Bytes.of_string
  |> fun buf ->
  List.iteri (fun i b -> Bytes.set buf i (if b then '1' else '0')) bs;
  Bytes.to_string buf

let to_bools s = List.init (String.length s) (fun i -> s.[i] = '1')

let get s i =
  if i < 0 || i >= String.length s then invalid_arg "Bits.get: out of range";
  s.[i] = '1'

let append = ( ^ )
let sub s pos len = String.sub s pos len
let take k s = String.sub s 0 (min k (String.length s))
let equal = String.equal
let pp ppf s = Format.fprintf ppf "%s" (if s = "" then "ε" else s)
let packed_bytes len = (len + 7) / 8

let pack s buf off =
  let len = String.length s in
  let nbytes = packed_bytes len in
  if off < 0 || off > Bytes.length buf - nbytes then
    invalid_arg "Bits.pack: out of range";
  for j = 0 to nbytes - 1 do
    let byte = ref 0 in
    for i = 8 * j to min len ((8 * j) + 8) - 1 do
      if String.unsafe_get s i = '1' then byte := !byte lor (0x80 lsr (i land 7))
    done;
    Bytes.unsafe_set buf (off + j) (Char.unsafe_chr !byte)
  done

let unpack s off len =
  if off < 0 || len < 0 || off > String.length s - packed_bytes len then
    invalid_arg "Bits.unpack: out of range";
  let out = Bytes.create len in
  for i = 0 to len - 1 do
    let byte = Char.code (String.unsafe_get s (off + (i lsr 3))) in
    Bytes.unsafe_set out i
      (if byte land (0x80 lsr (i land 7)) <> 0 then '1' else '0')
  done;
  Bytes.unsafe_to_string out

let zero k = String.make k '0'
let one_bit b = if b then "1" else "0"

let random st k = String.init k (fun _ -> if Random.State.bool st then '1' else '0')

let flip s i =
  if i < 0 || i >= String.length s then invalid_arg "Bits.flip: out of range";
  let buf = Bytes.of_string s in
  Bytes.set buf i (if s.[i] = '1' then '0' else '1');
  Bytes.to_string buf

let int_width n =
  if n < 0 then invalid_arg "Bits.int_width: negative";
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  max 1 (go 0 n)

module Writer = struct
  type buf = Buffer.t

  let create () = Buffer.create 32
  let contents = Buffer.contents
  let bits buf b = Buffer.add_string buf b
  let bool buf b = Buffer.add_char buf (if b then '1' else '0')

  let int_fixed buf ~width v =
    if v < 0 then invalid_arg "Bits.Writer.int_fixed: negative";
    if width < 0 then invalid_arg "Bits.Writer.int_fixed: negative width";
    if width < 63 && v lsr width <> 0 then
      invalid_arg
        (Printf.sprintf "Bits.Writer.int_fixed: %d does not fit in %d bits" v
           width);
    for i = width - 1 downto 0 do
      bool buf ((v lsr i) land 1 = 1)
    done

  (* Elias gamma of v+1: (width-1) zeroes, then the width binary digits
     of v+1, most significant (always 1) first. *)
  let int_gamma buf v =
    if v < 0 then invalid_arg "Bits.Writer.int_gamma: negative";
    let v = v + 1 in
    let width = int_width v in
    bits buf (zero (width - 1));
    int_fixed buf ~width v

  let list buf f xs =
    int_gamma buf (List.length xs);
    List.iter (f buf) xs
end

module Reader = struct
  type cursor = { data : string; mutable pos : int }

  exception Decode_error of string

  let of_bits data = { data; pos = 0 }

  let bool c =
    if c.pos >= String.length c.data then raise (Decode_error "truncated");
    let b = c.data.[c.pos] = '1' in
    c.pos <- c.pos + 1;
    b

  let int_fixed c ~width =
    let v = ref 0 in
    for _ = 1 to width do
      v := (!v lsl 1) lor (if bool c then 1 else 0)
    done;
    !v

  let int_gamma c =
    let zeros = ref 0 in
    while not (bool c) do
      incr zeros;
      if !zeros > 62 then raise (Decode_error "gamma code too long")
    done;
    (* We consumed the leading 1 of the payload. *)
    let rest = int_fixed c ~width:!zeros in
    ((1 lsl !zeros) lor rest) - 1

  let list c f =
    let len = int_gamma c in
    List.init len (fun _ -> f c)

  let remaining c = String.length c.data - c.pos
  let at_end c = remaining c = 0

  let expect_end c =
    if not (at_end c) then raise (Decode_error "trailing bits")
end

let encode_int v =
  let buf = Writer.create () in
  Writer.int_gamma buf v;
  Writer.contents buf

let decode_int b =
  let c = Reader.of_bits b in
  let v = Reader.int_gamma c in
  Reader.expect_end c;
  v
