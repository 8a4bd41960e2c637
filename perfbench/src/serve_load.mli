(** The serve workloads: {!Workloads.Open_world} sessions sent as
    {!Serve.Frame} bytes to a sharded {!Serve.Daemon} with
    [~journal:false], from one coordinating thread.

    A run serves the seed's schedule repeatedly.  The {e saturate}
    phase is closed-loop and tick-batched (submit the tick, flush,
    await and decode); its figure is steps per second.  The {e paced}
    phase is open-loop at the shape's fixed rate: step [k] of an epoch
    is due at [t0 + k/rate], the coordinator submits whatever is due,
    flushes, and waits for the next due time; a step's latency runs
    from its due time to its decoded reply, so a stall is charged to
    every step queued behind it.

    Correctness, checked outside the timed region: every reply decodes,
    none is an [Error], each answers its request; every epoch's chained
    reply digest equals {!Serve.Driver.run_stream}'s on the same spec,
    and that reference run passes its serve = engine identity.  A
    traced run also re-encodes every reply and replays every step
    through an in-process [Engine.Session]. *)

type shape = {
  dim : int;
  live : int;  (** Sessions open at tick 0; arrivals keep the count near it. *)
  ticks : int;
  lifetime : float;  (** Mean session lifetime, in ticks. *)
  rate : float;  (** Offered load of the paced phase, steps per second. *)
}

val plane : shape
val line : shape

val spec : shape -> seed:int -> Workloads.Open_world.spec

val frame_stream_digest : Workloads.Open_world.spec -> string
(** Hex digest chained over every request frame the schedule sends, in
    order — the load generator's whole output. *)

val run : shape -> seed:int -> seconds:int -> trace:bool -> Outcome.t
