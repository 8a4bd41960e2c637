(** Drive an {!Workloads.Open_world} schedule through a {!Daemon} and
    check the serve≡engine identity wall.

    The driver is the single coordinating thread the daemon's API
    expects: per tick it submits the tick's open/step/close frames (all
    through the {!Frame} codec — the driver talks to the daemon only in
    bytes), flushes, then decodes every reply.  Both modes share one
    tick loop and keep the same O(1) state per live session: the plan,
    the served round count and a chained digest of the served
    positions.  When a session closes the driver replays it in-process
    with the same PRNG ({!Daemon.session_rng}) under {!Daemon.config}
    and compares {e bitwise}: the position digest, the final position,
    the cumulative move/service costs, the round and clamp counts.  A
    divergence names the session (not the first divergent round);
    [bench serve] turns any mismatch into a non-zero exit.

    The replica — the {e witness} — differs per mode, so that the
    stream ≡ materialized gate compares two independent request
    sources: {!run} replays {!Workloads.Open_world.plan_instance}
    through {!Mobile_server.Engine.run}, and {!run_stream} replays a
    fresh {!Workloads.Open_world.plan_cursor} through
    {!Mobile_server.Engine.run_stream}.  {!run_stream} also streams the
    schedule itself from a {!Workloads.Open_world.spec} (no plan
    array), which is what serves the million-live-session bench point.

    Clocks are injected ([?now]) because this library must stay
    wall-clock-free (the determinism-clock lint): the bench passes
    [Unix.gettimeofday], tests pass nothing and get no latencies. *)

type report = {
  sessions : int;  (** Sessions opened (and, when [ok], closed). *)
  steps : int;  (** Step replies received. *)
  errors : int;  (** [Error] replies received (0 on a healthy run). *)
  peak_live : int;  (** Daemon-reported live-session high-water mark. *)
  latencies : float array;
      (** Per-step {e sojourn} seconds (submit→reply, submission
          order); empty unless [~now] was given.  Under the driver's
          tick batching a step's sojourn is dominated by queueing
          behind the rest of its tick, so its p99 measures saturation,
          not service speed — see [service_latencies] for the latter.
          Feed to {!Stats.Quantile.quantile}. *)
  service_latencies : float array;
      (** Per-tick {e service} seconds per step: each tick's flush
          wall time divided by the step frames in the batch, one
          sample per tick that served any step; empty unless [~now]
          was given.  This is the daemon's actual per-step processing
          time and the number [bench serve] headlines as step
          latency. *)
  mismatches : string list;
      (** Human-readable identity violations, capped at {!max_reported};
          empty iff serve ≡ engine held bitwise for every session. *)
  reply_digest : string;
      (** Hex digest chained over every reply frame in submission
          order.  Equal digests across daemons ⇒ byte-identical reply
          streams; the jobs=1 ≡ jobs=N and stream ≡ materialized gates
          compare exactly this. *)
}

val max_reported : int
(** Mismatch descriptions kept per run (the count still reflects all). *)

val ok : report -> bool
(** No mismatches, no error replies, every session closed. *)

val run : ?now:(unit -> float) -> Daemon.t -> Workloads.Open_world.t -> report
(** [run daemon schedule] serves the whole schedule and verifies every
    session against [Engine.run] on its materialized instance under
    {!Daemon.config} with the daemon's session PRNG.  The daemon is left running (not shut
    down), so a caller can serve several schedules back to back. *)

val run_stream :
  ?now:(unit -> float) -> Daemon.t -> Workloads.Open_world.spec -> report
(** [run_stream daemon spec] serves the schedule [spec] describes via
    {!Workloads.Open_world.iter_stream} — never materializing plans,
    instances or trajectories — and verifies every session at close
    against {!Mobile_server.Engine.run_stream} by comparing chained
    position digests plus the cumulative counters and costs, all
    bitwise.  Submits byte-identical frames in the same order as
    [run (of_spec spec)] on an equal daemon, so the two reports'
    [reply_digest]s are equal — the stream ≡ materialized gate.
    Driver-side memory is O(peak live sessions). *)
