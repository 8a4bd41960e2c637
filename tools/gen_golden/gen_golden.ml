(* Regenerates the golden trajectory for the differential determinism
   suite (Experiments.Golden describes the fixed run).  The committed
   capture test/golden/t1_default.trajectory was produced by the
   pre-optimization seed code and re-captured once when the certified
   median replaced the Weiszfeld loop; regenerate it ONLY when the
   golden run's definition or a deliberately re-gated computation
   changes, never to make a failing byte-identity check pass — a
   mismatch is the signal the suite exists to catch. *)

let () = print_string (Experiments.Golden.trajectory_string ())
