external now : unit -> (float[@unboxed])
  = "perfbench_clock_now_byte" "perfbench_clock_now"
[@@noalloc]
