module MS = Mobile_server
module Opt_cache = Offline.Opt_cache
module Samples = Pct.Samples

type kind = Line | Plane | Fleet

(* Kind, instances per table, rounds per instance.  Convex_opt's solve
   time is heavy-tailed in the instance at every size: over 80 seeded
   2-D cluster instances at T = 100 with [max_iter = 60] (the t1
   experiment's size and budget) one solve takes 47-934 ms, and a table
   of 16 such rows spreads by about 0.2 of its median from one seed to
   another.  At T = 10 most solves take 2-7 ms but about one in ten
   takes 15-70 ms, so how many slow instances a seed draws still sets
   the table's time: over 1 200 seeded rows, a 64-row table (16/32/16)
   spreads by 0.10 of its median from seed to seed, a 640-row table by
   0.03.  So the table holds many short rows, and a pass costs about
   the same for every seed. *)
let plane_rows = 320
let table = [ (Line, 160, 100); (Plane, plane_rows, 10); (Fleet, 160, 30) ]
let deltas = [| 0.25; 0.5; 1.0 |]
let fleet_k = 3

let kind_name = function Line -> "line" | Plane -> "plane" | Fleet -> "fleet"

let sp_row = Trace.register "sweep.row"
let sp_line = Trace.register "line_dp.solve"
let sp_convex = Trace.register "convex_opt.solve"
let sp_fleet = Trace.register "fleet_flow.solve"
let sp_hit = Trace.register "opt_cache.hit"
let sp_price = Trace.register "engine.total_cost"
let sp_probe = Trace.register "probe"

type cell = {
  id : int;
  kind : kind;
  inst : MS.Instance.t;
  packed : MS.Instance.Packed.t;
}

let cells ~seed =
  let next = ref 0 in
  Array.of_list
    (List.concat_map
       (fun (kind, count, t) ->
         List.init count (fun _ ->
             let id = !next in
             incr next;
             let rng = Prng.Xoshiro.create (Int64.of_int (Exec.derive_seed ~parent:seed id)) in
             let inst =
               match kind with
               | Line -> Workloads.Clusters.generate ~dim:1 ~t rng
               | Plane -> Workloads.Clusters.generate ~dim:2 ~t rng
               | Fleet -> Workloads.Hotspots.generate ~dim:2 ~t rng
             in
             { id; kind; inst; packed = MS.Instance.pack inst }))
       table)

let inputs_digest cells =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (Array.to_list (Array.map (fun c -> MS.Instance.Packed.content_digest c.packed) cells))))

let cells_digest ~seed = inputs_digest (cells ~seed)

type row = {
  wall : float;  (** The row's cold solve, re-reads and pricing. *)
  iterations : int;
  sweeps : int;
  failed : int;
  failures : string list;
  tracer : Trace.t option;
  probe : Probe.counts;
}

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The program's own cached entry point for each kind. *)
let solve cell config =
  match cell.kind with
  | Line -> Opt_cache.line_dp config cell.packed
  | Plane -> Opt_cache.convex config cell.packed
  | Fleet -> Multi.Fleet_offline.optimum_flow ~k:fleet_k config cell.inst

let cold_span = function Line -> sp_line | Plane -> sp_convex | Fleet -> sp_fleet

(* One table row: a cold solve (a cache miss that computes and inserts)
   at the first δ, then two cached re-reads at the other δ values —
   hits, since δ is not part of the key — and MtC priced at each δ.  A
   traced row then, outside the row's span, replays MtC through the
   probe and re-solves a plane instance with [Convex_opt.solve_packed]
   for its iteration counts; that solve must equal the cached one. *)
let row ~traced cell =
  let tr = if traced then Some (Trace.create ()) else None in
  let owner = cell.id in
  let log = Outcome.log () in
  let config j = MS.Config.with_delta Probe.config deltas.(j) in
  let opt = ref nan in
  let t0 = Clock.now () in
  (try
     Trace.span tr sp_row ~owner (fun () ->
         opt := Trace.span tr (cold_span cell.kind) ~owner (fun () -> solve cell (config 0));
         Array.iteri
           (fun j _ ->
             let opt_j =
               if j = 0 then !opt else Trace.span tr sp_hit ~owner (fun () -> solve cell (config j))
             in
             if not (same_bits opt_j !opt) then
               Outcome.fail log "%s #%d: cached optimum at delta %g differs from the cold solve"
                 (kind_name cell.kind) cell.id deltas.(j)
             else begin
               let ratio =
                 Trace.span tr sp_price ~owner (fun () ->
                     Experiments.Ratio.cost_pair_packed (config j) MS.Mtc.algorithm cell.packed
                       ~opt:opt_j)
               in
               if not (Float.is_finite ratio && ratio > 0.0) then
                 Outcome.fail log "%s #%d: ratio %g at delta %g is not finite and positive"
                   (kind_name cell.kind) cell.id ratio deltas.(j)
             end)
           deltas)
   with e ->
     Outcome.fail log "%s #%d raised %s" (kind_name cell.kind) cell.id (Printexc.to_string e));
  let wall = Clock.now () -. t0 in
  let iterations = ref 0 and sweeps = ref 0 in
  let probe = Probe.counts () in
  if traced then
    Trace.span tr sp_probe ~owner (fun () ->
        let r = Probe.replica ~start:cell.inst.MS.Instance.start () in
        Array.iter (fun rq -> ignore (Probe.step tr probe r ~owner rq)) cell.inst.MS.Instance.steps;
        if cell.kind = Plane then begin
          let s = Offline.Convex_opt.solve_packed (config 0) cell.packed in
          iterations := s.Offline.Convex_opt.subgradient_iterations;
          sweeps := s.Offline.Convex_opt.descent_sweeps;
          if not (same_bits s.Offline.Convex_opt.cost !opt) then
            Outcome.fail log "plane #%d: Convex_opt.solve_packed differs from Opt_cache.convex"
              cell.id
        end);
  {
    wall;
    iterations = !iterations;
    sweeps = !sweeps;
    failed = min (Array.length deltas) log.Outcome.count;
    failures = Outcome.failures log;
    tracer = tr;
    probe;
  }

let cache_breaches ~rows (st : Opt_cache.stats) =
  abs (st.Opt_cache.misses - rows) + abs (st.Opt_cache.hits - (rows * (Array.length deltas - 1)))

type pass = {
  wall : float;
  rows : row array;
  hits : int;
  warm_misses : int;  (** Misses beyond the one cold solve per row. *)
  minor_words : float;
  major_collections : int;
  failed : int;
  failures : string list;
}

let pass ~jobs ~traced cells =
  Opt_cache.clear ();
  Opt_cache.reset_stats ();
  let gc0 = Gc.quick_stat () in
  let t0 = Clock.now () in
  let rows = Exec.map ~jobs (row ~traced) cells in
  let wall = Clock.now () -. t0 in
  let gc1 = Gc.quick_stat () in
  let st = Opt_cache.stats () in
  let n = Array.length cells in
  let failed = Array.fold_left (fun a (r : row) -> a + r.failed) 0 rows in
  let failures = List.concat_map (fun (r : row) -> r.failures) (Array.to_list rows) in
  let breaches = cache_breaches ~rows:n st in
  let failed, failures =
    if breaches = 0 then (failed, failures)
    else
      ( failed + breaches,
        Printf.sprintf "cache saw %d misses and %d hits, expected %d and %d"
          st.Opt_cache.misses st.Opt_cache.hits n (n * (Array.length deltas - 1))
        :: failures )
  in
  {
    wall;
    rows;
    hits = st.Opt_cache.hits;
    warm_misses = st.Opt_cache.misses - n;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    failed;
    failures;
  }

(* Runs [round] until [budget] is spent, at least [min] times: another
   round only if one as long as the last still fits, so a run takes its
   budget, not up to a round more. *)
let repeat ~budget ~min round =
  let start = Clock.now () in
  let rec go acc k =
    let t0 = Clock.now () in
    let acc = round () :: acc in
    let t1 = Clock.now () in
    if k + 1 < min || t1 -. start +. (t1 -. t0) <= budget then go acc (k + 1) else List.rev acc
  in
  go [] 0

let run ~seed ~seconds ~trace =
  let jobs = Exec.default_jobs () in
  Opt_cache.set_disk_dir None;
  Opt_cache.set_enabled true;
  let budget = float_of_int seconds in
  let setups = Samples.create () in
  (* Set-up: generate, pack and digest the instances (which memoises
     each content digest, as the cache keys need it).  It is timed three
     times after every pass too, so its samples span the run. *)
  let setup () =
    let t0 = Clock.now () in
    let cells = cells ~seed in
    ignore (inputs_digest cells);
    Samples.add setups (Clock.now () -. t0);
    cells
  in
  let cells = setup () in
  let n = Array.length cells in
  (* Warm up on one row in eight, every kind, before timing. *)
  let warm =
    [ pass ~jobs ~traced:false (Array.of_list (List.filteri (fun i _ -> i mod 8 = 0) (Array.to_list cells))) ]
  in
  let plain, traced =
    if trace then
      (* Untraced and traced passes alternate, so the tracing overhead
         compares passes that ran under the same load of the machine. *)
      List.split
        (repeat ~budget ~min:1 (fun () ->
             let p = pass ~jobs ~traced:false cells in
             (p, pass ~jobs ~traced:true cells)))
    else
      ( repeat ~budget ~min:2 (fun () ->
            let p = pass ~jobs ~traced:false cells in
            for _ = 1 to 3 do
              ignore (setup ())
            done;
            p),
        [] )
  in
  let walls ps = Array.of_list (List.map (fun p -> p.wall) ps) in
  let all = warm @ plain @ traced in
  let tails = ref [] in
  let metrics =
    if not trace then begin
      (* Pooled over the run, like the serve figures: rows over all pass
         time, and the median of every row's time. *)
      let rows = Array.concat (List.map (fun p -> Array.map (fun (r : row) -> r.wall) p.rows) plain) in
      let p99 = Pct.summarize 0.99 rows in
      tails :=
        [
          ("latency_p90_ms", Json.Num (Pct.value (Pct.summarize 0.9 rows) *. 1e3));
          ("latency_p99_ms", Json.Num (Pct.value p99 *. 1e3));
          ("latency_p99_basis", Json.Str (Pct.describe p99));
        ];
      [
        Outcome.metric "setup_s" "s" (Pct.median (Samples.to_array setups));
        Outcome.metric "throughput_per_s" "1/s"
          (float_of_int (Array.length rows) /. Array.fold_left ( +. ) 0.0 (walls plain));
        Outcome.metric "latency_p50_ms" "ms" (Pct.median rows *. 1e3);
      ]
    end
    else begin
      let tr = Trace.create () in
      let probe = Probe.counts () in
      let iterations = ref 0 and sweeps = ref 0 in
      List.iter
        (fun p ->
          Array.iter
            (fun (r : row) ->
              Option.iter (Trace.absorb tr) r.tracer;
              iterations := !iterations + r.iterations;
              sweeps := !sweeps + r.sweeps;
              probe.Probe.centers <- probe.Probe.centers + r.probe.Probe.centers;
              probe.Probe.iterative <- probe.Probe.iterative + r.probe.Probe.iterative;
              probe.Probe.clamped <- probe.Probe.clamped + r.probe.Probe.clamped)
            p.rows)
        traced;
      Trace.write tr (Printf.sprintf ".perfbench/trace-opt-sweep-seed%d.tsv" seed);
      let np = List.length traced in
      let traced_wall = Array.fold_left ( +. ) 0.0 (walls traced) in
      let plain_wall = Array.fold_left ( +. ) 0.0 (walls plain) in
      let per_pass x k = float_of_int x /. float_of_int (max 1 k) in
      let hits = List.fold_left (fun a p -> a + p.hits) 0 traced in
      let misses = List.fold_left (fun a p -> a + p.warm_misses) 0 traced in
      let probe_time = Trace.total tr sp_probe in
      let ms k = Trace.mean tr k *. 1e3 in
      Probe.metrics tr probe
      @ [
          Outcome.metric "line_dp.solve_ms" "ms" (ms sp_line);
          Outcome.metric "convex_opt.solve_ms" "ms" (ms sp_convex);
          Outcome.metric "convex_opt.subgradient_iterations" "count"
            (per_pass !iterations (plane_rows * np));
          Outcome.metric "convex_opt.descent_sweeps" "count" (per_pass !sweeps (plane_rows * np));
          Outcome.metric "fleet_flow.solve_ms" "ms" (ms sp_fleet);
          Outcome.metric "opt_cache.hits" "count" (per_pass hits np);
          Outcome.metric "opt_cache.misses" "count" (per_pass misses np);
          Outcome.metric "opt_cache.hit_ratio" "share" (per_pass hits (hits + misses));
          Outcome.metric "opt_cache.hit_us" "us" (Trace.mean tr sp_hit *. 1e6);
          Outcome.metric "engine.total_cost_ms" "ms" (ms sp_price);
          Outcome.metric "sweep.solver_share" "share"
            (List.fold_left (fun a k -> a +. Trace.total tr k) 0.0 [ sp_line; sp_convex; sp_fleet ]
             /. Trace.total tr sp_row);
          Outcome.metric "exec.busy_share" "share"
            (Trace.total tr sp_row /. ((traced_wall -. probe_time) *. float_of_int jobs));
          Outcome.metric "gc.minor_words_per_op" "words"
            (List.fold_left (fun a p -> a +. p.minor_words) 0.0 plain
             /. float_of_int (n * List.length plain));
          Outcome.metric "gc.major_collections" "count"
            (float_of_int (List.fold_left (fun a p -> a + p.major_collections) 0 plain));
          Outcome.metric "trace.overhead_share" "share"
            (((traced_wall -. probe_time) /. float_of_int np)
             /. (plain_wall /. float_of_int (List.length plain))
             -. 1.0);
        ]
    end
  in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 all in
  let failures = List.concat_map (fun p -> p.failures) all in
  {
    Outcome.attempted =
      List.fold_left (fun a p -> a + Array.length p.rows) 0 all * Array.length deltas;
    failed;
    metrics;
    record =
      [
        ("jobs", Json.Num (float_of_int jobs));
        ("instances", Json.Num (float_of_int n));
        ("inputs_digest", Json.Str (inputs_digest cells));
      ]
      @ !tails;
    failures = List.filteri (fun i _ -> i < 8) failures;
  }
