(** The opt-sweep workload: a competitive-ratio table over fixed seeded
    instances — [Line_dp] on 1-D clusters, [Convex_opt] on 2-D clusters
    and the fleet flow ([Fleet_offline.optimum_flow], k = 3) on hotspot
    instances.

    Every row goes through the program's own cached entry point:
    [Opt_cache.line_dp], [Opt_cache.convex] (default budget, as
    [msp] uses it) or [Fleet_offline.optimum_flow].  A pass clears
    {!Offline.Opt_cache} and computes every row: a cold solve at the
    first δ (a miss that computes and inserts), two cached
    re-reads at the other δ values (hits: δ is not part of the key),
    and MtC priced at each δ with [Ratio.cost_pair_packed].  Rows run
    through [Exec.map] at [Exec.default_jobs ()].

    Correctness: every hit equals its cold solve bit for bit, every
    ratio is finite and positive, and each pass's cache counters show
    exactly one miss per row and one hit per re-read.  A traced run
    also re-solves each plane instance with [Convex_opt.solve_packed],
    outside the row's span, for its iteration counts; it must equal the
    cached optimum bit for bit. *)

val cache_breaches : rows:int -> Offline.Opt_cache.stats -> int
(** How far a pass's cache counters are from one miss per row and one
    hit per re-read: the sum of both differences.  Each counts as a
    failed cell. *)

val cells_digest : seed:int -> string
(** Digest of the seed's instances (their content digests, in table
    order). *)

val run : seed:int -> seconds:int -> trace:bool -> Outcome.t
