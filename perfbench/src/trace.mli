(** In-memory spans around the benchmark's calls into each layer.

    A span has a name, a start and an end (wall-clock seconds), a
    parent (the span open when it started) and an owner — the session
    or table cell it worked for.  Spans are buffered in flat arrays;
    whenever the buffer is nearly full and no span is open, the buffer
    is folded into per-name aggregates (count, total time, self time)
    and, up to a retention cap, kept for {!write}.  Self time is a
    span's duration minus the part of it its children cover.

    Names are registered once at module initialisation ({!register}),
    so recording a span costs two clock reads and a few array stores.
    A tracer is single-domain; cells running on other domains use
    their own tracer and are merged with {!absorb}. *)

val register : string -> int
(** The id of a span name, registering it on first use. *)

val self_times :
  parent:int array -> start:float array -> stop:float array -> int -> float array
(** [self_times ~parent ~start ~stop n] is, for each of the first [n]
    spans, its duration minus the length of the union of its
    children's intervals clipped to its own.  [parent.(i)] is the index
    of span [i]'s parent, or a negative number for a root. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 4096) sizes the span buffer — small, so each
    fold is a short pause.  The first 100000 spans are retained for
    {!write}. *)

val span : t option -> int -> owner:int -> (unit -> 'a) -> 'a
(** [span tracer name ~owner f] runs [f], recording a span when a
    tracer is given; with [None] it is just [f ()]. *)

val absorb : t -> t -> unit
(** [absorb t other] adds [other]'s spans and aggregates to [t]. *)

val count : t -> int -> int
val total : t -> int -> float
(** Summed duration, seconds. *)

val self : t -> int -> float
(** Summed self time, seconds. *)

val mean : t -> int -> float
(** Mean duration per span, seconds; 0 when there is none. *)

val write : t -> string -> unit
(** Write the retained spans and the per-name aggregates as
    tab-separated text. *)
