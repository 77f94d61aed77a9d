(** The monotonic clock ([CLOCK_MONOTONIC]) behind every deadline,
    timeout and retransmit timer: unlike [Unix.gettimeofday] it never
    steps, so a wall-clock adjustment cannot fire or stall a deadline.
    Readings are only meaningful relative to each other. *)

(** Nanoseconds since an arbitrary fixed point. *)
val now_ns : unit -> int

(** The same reading in seconds. *)
val now : unit -> float
