(** The benchmark's command line.  Parsing is strict and happens before
    any workload runs: an unknown flag, a repeated flag, a missing value
    or an unknown workload name is an [Error], which [main] turns into
    exit code 2. *)

type run = {
  workload : string;
  seed : int;  (** Workload seed; the inputs are a pure function of it. *)
  seconds : int;  (** Measurement budget of the run (default 10). *)
  trace : bool;  (** [--trace 1]: the traced run with per-layer metrics. *)
  out : string option;  (** Append the result record to this JSONL file. *)
}

type t =
  | Run of run
  | Compare of string * string  (** Two result sets written by [--out]. *)
  | Help

val workloads : string list
(** Every workload name, in the order [BENCHMARK.json] lists them. *)

val usage : string

val parse : string list -> (t, string) result
(** [parse args] reads the arguments after the program name. *)
