(** Trace-only replay of MtC rounds, to time the center and the engine
    round from outside the program.

    The served or priced rounds are fed to an in-process
    {!Mobile_server.Engine.Session} and, before each step, to
    {!Geometry.Median.center} with the arguments {!Mobile_server.Mtc}
    uses ([?init] is the previous center only under warm start).  A
    round with at least three requests in two or more dimensions is
    counted as iterative: that is where [center] runs Weiszfeld's
    iteration rather than a closed form or a 1-D sort. *)

val config : Mobile_server.Config.t
(** The model every workload runs: [D = 2], [m = 1], [δ = 0.5] — the
    configuration of [bench serve]. *)

val sp_center : int
(** The [median.center] span. *)

type counts = {
  mutable centers : int;  (** Rounds with at least one request. *)
  mutable iterative : int;
  mutable clamped : int;
}

val counts : unit -> counts

type replica

val replica : ?rng:Prng.Xoshiro.t -> start:Geometry.Vec.t -> unit -> replica

val step :
  Trace.t option -> counts -> replica -> owner:int -> Geometry.Vec.t array ->
  Mobile_server.Engine.step_record
(** Time one round: a [median.center] span, then an
    [engine.session_step] span; returns the replica's record. *)

val metrics : Trace.t -> counts -> Outcome.metric list
(** [median.center_us], [median.iterative_share],
    [engine.session_step_us] and [engine.clamped_rounds]. *)
