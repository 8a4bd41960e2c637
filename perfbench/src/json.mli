(** The little JSON the benchmark reads and writes: its result lines,
    the result sets of [compare], and [BENCHMARK.json]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val number : float -> string
(** A number with every digit ("%.17g"); integers print without a
    fraction.  Non-finite values, which only a failed run produces,
    print as [null] (NaN) or the largest finite double of their sign. *)

val to_string : t -> string
(** One line of JSON. *)

val parse : string -> (t, string) result

val member : string -> t -> t option
val to_num : t -> float option
val to_str : t -> string option
