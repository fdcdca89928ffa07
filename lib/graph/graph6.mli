(** The graph6 interchange format (McKay's nauty suite) — handy for
    importing standard test graphs, exporting counterexamples to other
    tools, and as the graph payload of the wire protocol. Nodes are
    [0..n-1]. Graphs with n <= 62 use the classic single-byte size
    header; larger graphs (up to 2^20 nodes, a cap that bounds the work
    and memory a small hostile header can demand) use nauty's standard
    ['~'] / ["~~"] multi-byte headers, so bench-sized instances
    (n = 4096) round-trip over the wire. *)

val encode : Graph.t -> string
(** Raises [Invalid_argument] when n > 2^20 or the node ids are
    not exactly [0..n-1] (relabel first). For n <= 62 the output is
    byte-identical to the historic single-byte format. *)

val decode : string -> Graph.t
(** Raises [Invalid_argument] on malformed input. *)

val decode_res : string -> (Graph.t, string) result
(** Total: malformed input — wrong length, bytes outside the graph6
    alphabet, truncated or non-minimal size headers, n over the cap,
    set padding bits after the last edge bit — is an [Error], never an
    exception; a bad byte is named by its index. This is the entry
    point for untrusted bytes that a {!Graph.t} is wanted for. Costs
    O(bytes/8 + n + m): runs of ['?'] are skipped eight bytes at a
    time and the graph is built from sorted rows. Every accepted [s]
    satisfies [encode (decode s) = s], so one graph has one string. *)

val decode_csr : string -> (Csr.t, string) result
(** The same bytes to the same graph, as a {!Csr.t} on ids
    [0 .. n-1], through the same scans and with the same errors as
    {!decode_res}, but building no {!Graph.t}: the rows are checked
    ({!Csr.of_rows}) and kept as they are. The daemon serves every
    cache miss from this. *)

