(** [perfbench compare OLD NEW]: two result sets side by side.

    A result set is a JSONL file of the lines [--out] appends, one per
    run.  For each workload and each metric of [BENCHMARK.json] the
    table gives both sides' median, quartiles and run count, and for an
    end-to-end metric a verdict under its bound:

    - [unresolved] when either side's spread (quartile distance over
      median) exceeds the bound, unless every new run beats — or loses
      to — every old run;
    - [worse] when the new median is worse than the old by more than
      the bound;
    - [better] when it is better by more than the old side's spread and
      the new side's worse quartile beats the old median;
    - [same] otherwise.

    The tail latencies of the run record ([latency_p90_ms],
    [latency_p99_ms]) and the per-layer metrics (from traced runs) have
    no bound and are listed without a verdict. *)

type bound = { better_lower : bool; bound : float option }

val load_benchmark :
  string -> ((string * string * bound) list * (string * string * bound) list, string) result
(** [(end_to_end, per_layer)] metrics of a [BENCHMARK.json], each as
    [(name, unit, bound)]. *)

val verdict : bound -> old_v:float array -> new_v:float array -> string

val main : bench:string -> string -> string -> int
(** Print the table; the exit code is 1 when any metric is [worse], 2
    when a file cannot be read, else 0. *)
