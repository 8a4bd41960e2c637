(** Seconds on the monotonic clock ([CLOCK_MONOTONIC]), at nanosecond
    resolution.  Only differences are meaningful. *)

external now : unit -> (float[@unboxed])
  = "perfbench_clock_now_byte" "perfbench_clock_now"
[@@noalloc]
