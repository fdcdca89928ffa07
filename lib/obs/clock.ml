external now_ns : unit -> int = "lcp_obs_monotonic_ns" [@@noalloc]

let elapsed_ns t0 = now_ns () - t0
let ns_to_s ns = float_of_int ns *. 1e-9
let ns_to_us ns = float_of_int ns *. 1e-3

