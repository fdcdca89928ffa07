(* Pieces the lcp CLI and the bench driver share: the worker-count
   flag and the column padding of their Table 1 printouts. *)

open Cmdliner

(* Not [Arg.int]: a plain int converter would accept "--jobs -3" and
   let it reach [Pool.create]. 0 means "all recommended cores",
   anything negative is an error. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some j when j >= 0 -> Ok j
    | Some _ -> Error (`Msg "JOBS must be >= 0 (0 = all recommended cores)")
    | None -> Error (`Msg (Printf.sprintf "invalid JOBS value %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs =
  Arg.(
    value
    & opt jobs_conv 1
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for the verification engine: 1 runs \
           sequentially (default), 0 uses all recommended cores.")

let resolve_jobs j = if j = 0 then Pool.default_jobs () else j

(* Columns on a terminal are code points, not bytes: the paper classes
   hold Θ, Ω, ² and Σ¹₁, two bytes each in UTF-8. A byte is a code
   point's first byte unless it is a continuation byte (10xxxxxx). *)
let display_width s =
  let w = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr w) s;
  !w

(* [pad width s]: [s] left-aligned in [width] display columns. *)
let pad width s = s ^ String.make (max 0 (width - display_width s)) ' '
