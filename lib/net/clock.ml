(* The monotonic clock — see clock_stubs.c. *)

external now_ns : unit -> (int[@untagged])
  = "rmi_clock_now_ns_byte" "rmi_clock_now_ns"
[@@noalloc]

let now () = float_of_int (now_ns ()) *. 1e-9
