(** Order statistics under the benchmark's reporting rules. *)

(** A tail figure: the requested quantile when the sample supports it,
    otherwise the sample maximum with the sample count. *)
type t = Quantile of float | Max of { value : float; n : int }

val summarize : float -> float array -> t
(** [summarize q xs] is the nearest-rank [q]-quantile of [xs] when at
    least ten samples lie beyond it (for the 99th percentile: at least
    1000 samples), else [Max] — with fewer samples a "p99" is really
    the maximum and is reported as such.  Raises [Invalid_argument] on
    an empty sample. *)

val value : t -> float
val describe : t -> string

val median : float array -> float
(** Sample median (mean of the two middle values for an even count). *)

val quartiles : float array -> float * float * float
(** [(q1, q2, q3)] exactly as Python's [statistics.quantiles(xs, n=4)]
    computes them (q2 is the median); a single sample is its own
    quartiles. *)

(** A growable buffer of float samples. *)
module Samples : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val length : t -> int
  val to_array : t -> float array
  val clear : t -> unit
end
