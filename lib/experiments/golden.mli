(** The golden-trajectory fixture guarding the hot-path rewrite.

    One fixed, fully deterministic run — MtC with the default
    (cold-start) configuration on the t1 clusters workload — whose
    serialized trajectory is committed as
    [test/golden/t1_default.trajectory].  It was captured before the
    allocation-free kernel rewrite and re-captured once when the
    certified median solver replaced the Weiszfeld loop (a deliberate
    change of the center's bits, gated on per-round objective dominance
    in [bench hotpath]).  The differential suite ([test_perf_equiv]) and
    [bench hotpath] both regenerate the trajectory through the current
    code and require it to be {e byte-identical} to the committed
    capture: any drift in the geometry kernels, the median solver or the
    engine's clamping shows up as a one-line diff here.

    Regenerate (only when the golden run's {e definition} or a
    deliberately re-gated computation changes, never to paper over a
    mismatch) with [dune exec tools/gen_golden/gen_golden.exe]. *)

val instance : unit -> Mobile_server.Instance.t
(** The fixed workload: drifting 2-D clusters, [T = 120], stream
    ["t1-clusters"]/seed 42 — the t1 catalog family. *)

val config : unit -> Mobile_server.Config.t
(** The fixed model: [D = 4], [m = 1], [delta = 0], move-first,
    warm-start off. *)

val run_with :
  Mobile_server.Config.t -> Mobile_server.Instance.t * Mobile_server.Engine.run
(** [run_with config] replays the golden instance under [config]. *)

val trajectory_string_with : Mobile_server.Config.t -> string
(** Serialized trajectory of {!run_with}. *)

val trajectory_string : unit -> string
(** [trajectory_string_with (config ())] — the bytes that must match
    the committed golden file. *)

val golden_path : string
(** Repo-root-relative path of the committed capture. *)
