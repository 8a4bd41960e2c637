(** What one benchmark run hands back to [main]. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  attempted : int;  (** Frames sent (serve) or table cells attempted (opt-sweep). *)
  failed : int;  (** Of those, the ones that failed a check. *)
  metrics : metric list;
  record : (string * Json.t) list;
      (** Workload-specific entries of the run record (jobs, shards,
          input digest, ...). *)
  failures : string list;  (** The first few failure descriptions. *)
}

val metric : string -> string -> float -> metric
(** [metric name unit value]. *)

(** A failure counter that keeps the first eight descriptions. *)
type log = { mutable count : int; mutable first_rev : string list }

val log : unit -> log
val fail : log -> ('a, unit, string, unit) format4 -> 'a
val note : log -> ('a, unit, string, unit) format4 -> 'a
(** Keep a description without counting a failure (the caller counts
    the failed operations itself). *)

val failures : log -> string list
