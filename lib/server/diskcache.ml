(* Persistent compiled-CSR image cache behind [lcp serve --cache-dir].

   One file per LRU key holds everything needed to reassemble a
   {!Simulator.compiled} without touching graph6: the raw CSR arrays
   and the original scheme/graph6 bytes for identity checking. A
   restarted daemon mmaps the file, verifies the checksum and the
   identity fields, checks the CSR rows ({!Csr.of_rows}: O(n + m), no
   graph6 decode, no [Simulator.compile], no {!Graph.t}), holds them
   as the image's {!Instance.of_csr} and serves warm.

   Layout (all integers big-endian u64 unless noted):

     0    "LCPC"            magic, 4 bytes
     4    u8 version        format version, currently 2
     5    u32 scheme_len    then scheme bytes
     .    u32 graph6_len    then graph6 bytes
     .    u64 n, u64 m
     .    offsets  (n+1) x u64
     .    targets  2m x u64
     .    ids      n x u64
     end-8  u64 checksum    FNV-1a (62-bit) over every preceding byte

   Loads are total: any IO error, bad magic, short file, checksum or
   identity mismatch, or structural violation caught by {!Csr.of_rows}
   (asymmetric, unsorted or self-looped rows included) yields [None]
   and the caller falls back to compiling; so does an image of another
   format version. Stores are best-effort (write to a temp file, then
   rename into place, so a concurrent loader never sees a half-written
   image) and never raise. *)

let m_stores = Obs.Metrics.counter "diskcache.stores"
let m_loads = Obs.Metrics.counter "diskcache.loads"
let m_load_failures = Obs.Metrics.counter "diskcache.load_failures"

(* Always-on counters (the registry above is gated on
   [Obs.Metrics.enabled]) so the server's Prometheus exposition can
   render hit/miss/invalid unconditionally: hits = image reassembled,
   misses = no file (ENOENT), invalid = a file existed but failed
   checksum/identity/structure and was ignored. *)
let c_hits = Atomic.make 0
let c_misses = Atomic.make 0
let c_invalid = Atomic.make 0

type counts = { hits : int; misses : int; invalid : int }

let counts () =
  {
    hits = Atomic.get c_hits;
    misses = Atomic.get c_misses;
    invalid = Atomic.get c_invalid;
  }

let magic = "LCPC"
let format_version = 2

(* 62-bit FNV-1a: the two top bits are masked off so the value is
   identical on every 63-bit-int platform and safe to carry as u64. *)
let fnv_mask = 0x3FFF_FFFF_FFFF_FFFF
let fnv_offset = 0x3BF29CE484222325 (* FNV-1a offset basis, top bits masked *)
let fnv_prime = 0x100000001B3

let fnv_update h byte = (h lxor byte) * fnv_prime land fnv_mask

(* Keys are [scheme ^ "/" ^ md5hex]; anything outside a conservative
   filename alphabet becomes '_' so a hostile scheme name cannot
   escape the cache directory. *)
let path ~dir key =
  let safe =
    String.map
      (fun ch ->
        match ch with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' -> ch
        | _ -> '_')
      key
  in
  Filename.concat dir (safe ^ ".lcpc")

(* --- store ------------------------------------------------------------ *)

let w_u64 b v =
  for byte = 7 downto 0 do
    Buffer.add_char b (Char.chr ((v lsr (8 * byte)) land 0xff))
  done

let w_u32 b v =
  for byte = 3 downto 0 do
    Buffer.add_char b (Char.chr ((v lsr (8 * byte)) land 0xff))
  done

let encode ~scheme ~graph6 compiled =
  let csr = Instance.csr compiled in
  let offsets, targets, ids = Csr.export csr in
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr format_version);
  w_u32 b (String.length scheme);
  Buffer.add_string b scheme;
  w_u32 b (String.length graph6);
  Buffer.add_string b graph6;
  w_u64 b (Csr.n csr);
  w_u64 b (Csr.m csr);
  Array.iter (w_u64 b) offsets;
  Array.iter (w_u64 b) targets;
  Array.iter (w_u64 b) ids;
  let body = Buffer.contents b in
  let h = ref fnv_offset in
  String.iter (fun ch -> h := fnv_update !h (Char.code ch)) body;
  w_u64 b !h;
  Buffer.contents b

let store ~dir ~key ~scheme ~graph6 compiled =
  match
    let image = encode ~scheme ~graph6 compiled in
    let final = path ~dir key in
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" final (Unix.getpid ())
        (Thread.id (Thread.self ()))
    in
    let oc = open_out_bin tmp in
    (try output_string oc image
     with e ->
       close_out_noerr oc;
       raise e);
    close_out oc;
    Unix.rename tmp final
  with
  | () -> Obs.Metrics.incr m_stores
  | exception (Unix.Unix_error _ | Sys_error _) ->
      (* best-effort: a read-only or vanished cache dir must never
         fail the request that tried to warm it *)
      ()

(* --- load ------------------------------------------------------------- *)

exception Bad of string

type mapped = {
  buf : (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable pos : int;
}

let byte mp i = Bigarray.Array1.unsafe_get mp.buf i

let need mp k =
  if mp.pos + k > Bigarray.Array1.dim mp.buf then raise (Bad "truncated image")

let r_u64 mp =
  need mp 8;
  let v = ref 0 in
  for _ = 1 to 8 do
    v := (!v lsl 8) lor Char.code (byte mp mp.pos);
    mp.pos <- mp.pos + 1
  done;
  if !v < 0 then raise (Bad "u64 field out of int range");
  !v

let r_u32 mp =
  need mp 4;
  let v = ref 0 in
  for _ = 1 to 4 do
    v := (!v lsl 8) lor Char.code (byte mp mp.pos);
    mp.pos <- mp.pos + 1
  done;
  !v

let r_string mp len =
  need mp len;
  let s = String.init len (fun i -> byte mp (mp.pos + i)) in
  mp.pos <- mp.pos + len;
  s

let r_u64_array mp n =
  (* bound the count by the bytes actually mapped before allocating *)
  need mp (n * 8);
  Array.init n (fun _ -> r_u64 mp)

let decode mp ~scheme ~graph6 =
  let dim = Bigarray.Array1.dim mp.buf in
  if dim < 4 + 1 + 8 then raise (Bad "file too small");
  if r_string mp 4 <> magic then raise (Bad "bad magic");
  need mp 1;
  let v = Char.code (byte mp mp.pos) in
  mp.pos <- mp.pos + 1;
  if v <> format_version then raise (Bad (Printf.sprintf "format version %d" v));
  (* checksum first: everything after it can then trust the bytes are
     the ones the writer produced (structural checks still run) *)
  let h = ref fnv_offset in
  for i = 0 to dim - 9 do
    h := fnv_update !h (Char.code (byte mp i))
  done;
  let stored =
    let v = ref 0 in
    for i = dim - 8 to dim - 1 do
      v := (!v lsl 8) lor Char.code (byte mp i)
    done;
    !v
  in
  if stored <> !h then raise (Bad "checksum mismatch");
  let file_scheme = r_string mp (r_u32 mp) in
  let file_graph6 = r_string mp (r_u32 mp) in
  if file_scheme <> scheme || file_graph6 <> graph6 then
    raise (Bad "identity mismatch");
  let n = r_u64 mp in
  let m = r_u64 mp in
  if n > Sys.max_array_length - 1 then raise (Bad "node count out of range");
  let offsets = r_u64_array mp (n + 1) in
  let targets = r_u64_array mp (2 * m) in
  let ids = r_u64_array mp n in
  if mp.pos <> dim - 8 then raise (Bad "trailing bytes before checksum");
  match Csr.of_rows ~ids ~offsets ~targets with
  | Error e -> raise (Bad e)
  | Ok csr -> Instance.of_csr csr

let load ~dir ~key ~scheme ~graph6 =
  let file = path ~dir key in
  match
    let fd = Unix.openfile file [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let buf =
          Bigarray.array1_of_genarray
            (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| -1 |])
        in
        decode { buf; pos = 0 } ~scheme ~graph6)
  with
  | compiled ->
      Atomic.incr c_hits;
      Obs.Metrics.incr m_loads;
      Some compiled
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      Atomic.incr c_misses;
      None
  | exception (Bad _ | Unix.Unix_error _ | Sys_error _ | Invalid_argument _) ->
      Atomic.incr c_invalid;
      Obs.Metrics.incr m_load_failures;
      None
