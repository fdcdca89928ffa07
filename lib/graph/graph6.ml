(* graph6 (McKay's nauty suite): a size header, then the
   upper-triangle adjacency bits x(0,1), x(0,2), x(1,2), x(0,3), …
   (column by column), packed big-endian into 6-bit groups, each
   offset by 63 so every byte is printable ASCII.

   Size header, exactly as nauty specifies it:
     n <= 62            one byte, n + 63
     63 <= n <= 258047  '~' then three bytes holding n in 18 bits
     n  > 258047        '~~' then six bytes holding n in 36 bits
   (each 6-bit group again offset by 63, most significant first).

   Encoding works directly on a [Bytes.t] — one bit-set per edge, no
   intermediate bit list — so wire-sized graphs (bench uses n up to
   4096, ~1.4 MB of data bytes) encode without allocating millions of
   list cells.  The n <= 62 output is byte-identical to the original
   single-byte implementation: same header, same packing.

   Decoding costs O(bytes/8 + n + m), not O(n^2): runs of '?' (six
   zero bits each) are skipped a word at a time, each set bit maps to
   its pair by advancing the column incrementally, and the two scans
   leave sorted adjacency rows. [decode_csr] checks those rows into a
   {!Csr.t} and builds nothing else, which is all a verifier reads;
   [decode_res] builds the persistent {!Graph.t} from them
   ({!Graph.of_rows}). The padding bits
   after the last edge bit must be zero, so every graph has exactly one
   accepted string, the one [encode] writes; the daemon's cache keys on
   that string. *)

(* Frames cross a trust boundary, so decoding also has to be cheap to
   reject: n is capped, and nothing sized by n is allocated before the
   string's length has been checked against the n(n-1)/2 bits its
   header announces, so a 9-byte header cannot demand big arrays. *)
let max_nodes = 1 lsl 20

let check_contiguous g =
  let n = Graph.n g in
  if n > max_nodes then
    invalid_arg (Printf.sprintf "Graph6.encode: supports n <= %d" max_nodes);
  if Graph.nodes g <> List.init n Fun.id then
    invalid_arg "Graph6.encode: nodes must be exactly 0..n-1";
  n

let size_header n =
  if n <= 62 then String.make 1 (Char.chr (n + 63))
  else if n <= 258047 then
    String.init 4 (fun k ->
        if k = 0 then '~'
        else Char.chr (((n lsr (6 * (3 - k))) land 0x3f) + 63))
  else
    String.init 8 (fun k ->
        if k < 2 then '~'
        else Char.chr (((n lsr (6 * (7 - k))) land 0x3f) + 63))

(* Bit index of edge (i, j), i < j, in column-by-column order:
   columns 1..j-1 hold j(j-1)/2 bits, then row i inside column j. *)
let edge_bit_index i j = (j * (j - 1) / 2) + i

let encode g =
  let n = check_contiguous g in
  let need = ((n * (n - 1) / 2) + 5) / 6 in
  (* accumulate the raw 6-bit groups, then apply the +63 printable
     offset in one pass at the end *)
  let data = Bytes.make need '\000' in
  Graph.iter_edges
    (fun u v ->
      let idx = edge_bit_index (min u v) (max u v) in
      let byte = idx / 6 and bit = 5 - (idx mod 6) in
      Bytes.set data byte
        (Char.chr (Char.code (Bytes.get data byte) lor (1 lsl bit))))
    g;
  size_header n
  ^ String.init need (fun k -> Char.chr (Char.code (Bytes.get data k) + 63))

(* Decoding is total: network bytes go through [decode_res], which
   never raises — every byte is range-checked and the length must
   match the header's n exactly. *)

let ( let* ) = Result.bind

let group s k =
  let c = Char.code s.[k] - 63 in
  if c < 0 || c > 63 then
    Error (Printf.sprintf "Graph6: byte %d is not a graph6 character" k)
  else Ok c

(* The size header, returned with the offset of the first data byte. *)
let decode_size s =
  let len = String.length s in
  if len = 0 then Error "Graph6: empty string"
  else if s.[0] <> '~' then
    let* n = group s 0 in
    Ok (n, 1)
  else if len >= 2 && s.[1] <> '~' then
    if len < 4 then Error "Graph6: truncated 3-byte size header"
    else
      let* b1 = group s 1 in
      let* b2 = group s 2 in
      let* b3 = group s 3 in
      let n = (b1 lsl 12) lor (b2 lsl 6) lor b3 in
      if n < 63 then Error "Graph6: non-minimal 3-byte size header"
      else Ok (n, 4)
  else if len < 8 then Error "Graph6: truncated 6-byte size header"
  else
    let rec go k acc =
      if k = 8 then Ok acc
      else
        let* b = group s k in
        go (k + 1) ((acc lsl 6) lor b)
    in
    let* n = go 2 0 in
    if n < 258048 then Error "Graph6: non-minimal 6-byte size header"
    else Ok (n, 8)

(* Eight '?' bytes (no edge bits) read as one little-endian word. *)
let blank8 = 0x3f3f3f3f3f3f3f3fL

type scan = Done | Bad_byte of int | Padding

(* One forward pass over the data bytes from [off]: each byte is
   range-checked, runs of '?' are skipped eight bytes at a time, and
   each set bit calls [f i j] (i < j) in bit order, the column
   advancing incrementally. Stops at the first byte outside the
   alphabet, or at a set bit at or past [nbits] (padding, which only
   the last byte holds). *)
let scan s off nbits f =
  let len = String.length s in
  let j = ref 1 and col = ref 0 (* bit index of (0, !j) *) in
  let emit c base =
    let padding = ref false in
    for b = 0 to 5 do
      if c land (32 lsr b) <> 0 then begin
        let idx = base + b in
        if idx >= nbits then padding := true
        else begin
          while idx >= !col + !j do
            col := !col + !j;
            incr j
          done;
          f (idx - !col) !j
        end
      end
    done;
    !padding
  in
  let rec go k =
    if k = len then Done
    else if k + 8 <= len && String.get_int64_le s k = blank8 then go (k + 8)
    else
      let c = Char.code s.[k] - 63 in
      if c < 0 || c > 63 then Bad_byte k
      else if c <> 0 && emit c (6 * (k - off)) then Padding
      else go (k + 1)
  in
  go off

(* Two scans, so nothing per edge is allocated beyond the rows: the
   first validates and counts degrees, the second fills the rows.
   Column [j] lists row [j]'s lower neighbours in increasing order
   before any later column appends a higher one, so each row comes
   out sorted. Returns the node ids [0 .. n-1] with the rows. *)
let decode_rows s =
  let* n, off = decode_size s in
  if n > max_nodes then
    Error (Printf.sprintf "Graph6: n = %d exceeds the %d-node cap" n max_nodes)
  else
    let nbits = n * (n - 1) / 2 in
    let need = (nbits + 5) / 6 in
    if String.length s <> off + need then
      Error
        (Printf.sprintf "Graph6: expected %d data bytes, got %d" need
           (String.length s - off))
    else
      let fill = Array.make n 0 in
      let count i j =
        fill.(i) <- fill.(i) + 1;
        fill.(j) <- fill.(j) + 1
      in
      match scan s off nbits count with
      | Bad_byte k ->
          Error (Printf.sprintf "Graph6: byte %d is not a graph6 character" k)
      | Padding -> Error "Graph6: padding bits after the last edge bit are set"
      | Done ->
          let offsets = Array.make (n + 1) 0 in
          for i = 0 to n - 1 do
            offsets.(i + 1) <- offsets.(i) + fill.(i);
            fill.(i) <- offsets.(i)
          done;
          let targets = Array.make offsets.(n) 0 in
          let place i j =
            targets.(fill.(i)) <- j;
            fill.(i) <- fill.(i) + 1;
            targets.(fill.(j)) <- i;
            fill.(j) <- fill.(j) + 1
          in
          ignore (scan s off nbits place);
          Ok (Array.init n Fun.id, offsets, targets)

let decode_csr s =
  let* ids, offsets, targets = decode_rows s in
  Csr.of_rows ~ids ~offsets ~targets

let decode_res s =
  let* ids, offsets, targets = decode_rows s in
  Ok (Graph.of_rows ~ids ~offsets ~targets)

let decode s =
  match decode_res s with Ok g -> g | Error msg -> invalid_arg msg
