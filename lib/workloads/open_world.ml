type plan = {
  id : int64;
  seed : int;
  family : int;
  arrival : int;
  rounds : int;
}

type spec = {
  s_dim : int;
  s_seed : int;
  s_ticks : int;
  s_arrival_rate : float;
  s_mean_lifetime : float;
  s_initial : int;
}

type t = {
  spec : spec;
  plans : plan array;  (* ordered by (arrival, id) *)
}

let family_count = 3

let family_name = function
  | 0 -> "clusters"
  | 1 -> "bursts"
  | 2 -> "random-walk"
  | i -> invalid_arg (Printf.sprintf "Open_world.family_name: %d" i)

let spec ?(arrival_rate = 4.0) ?(mean_lifetime = 16.0) ?(initial = 0)
    ~dim ~seed ~ticks () =
  if dim < 1 then invalid_arg "Open_world.generate: dim < 1";
  if ticks < 1 then invalid_arg "Open_world.generate: ticks < 1";
  if initial < 0 then invalid_arg "Open_world.generate: initial < 0";
  if not (Float.is_finite arrival_rate) || arrival_rate <= 0. then
    invalid_arg "Open_world.generate: arrival_rate <= 0";
  if not (Float.is_finite mean_lifetime) || mean_lifetime <= 0. then
    invalid_arg "Open_world.generate: mean_lifetime <= 0";
  {
    s_dim = dim;
    s_seed = seed;
    s_ticks = ticks;
    s_arrival_rate = arrival_rate;
    s_mean_lifetime = mean_lifetime;
    s_initial = initial;
  }

(* The admission process, shared by [of_spec] and [iter_stream] so both
   make the same draws in the same order from one named stream.  The
   returned function admits tick [tick]'s sessions in id order, handing
   each plan to [f]: the initial block (tick 0 only), then one Poisson
   draw and that many arrivals.  Ticks must be admitted in order. *)
let admissions (s : spec) =
  let sched = Prng.Stream.named ~name:"open-world-schedule" ~seed:s.s_seed in
  let next_id = ref 0 in
  let admit ~arrival f =
    let i = !next_id in
    incr next_id;
    (* Lifetimes round up (a session plays at least one round) and are
       capped so every session closes within the horizon. *)
    let drawn =
      Prng.Dist.exponential sched ~rate:(1.0 /. s.s_mean_lifetime)
    in
    f
      {
        id = Int64.of_int i;
        seed = Exec.derive_seed ~parent:s.s_seed i;
        family = i mod family_count;
        arrival;
        rounds =
          Stdlib.max 1
            (Stdlib.min (s.s_ticks - arrival)
               (int_of_float (Float.ceil drawn)));
      }
  in
  fun ~tick f ->
    if tick = 0 then for _ = 1 to s.s_initial do admit ~arrival:0 f done;
    let arrivals = Prng.Dist.poisson sched ~lambda:s.s_arrival_rate in
    for _ = 1 to arrivals do admit ~arrival:tick f done

let of_spec (s : spec) =
  let admit = admissions s in
  let plans = ref [] in
  for tick = 0 to s.s_ticks - 1 do
    admit ~tick (fun p -> plans := p :: !plans)
  done;
  (* Admission order is already (arrival, id) order. *)
  { spec = s; plans = Array.of_list (List.rev !plans) }

let generate ?arrival_rate ?mean_lifetime ?initial ~dim ~seed ~ticks () =
  of_spec (spec ?arrival_rate ?mean_lifetime ?initial ~dim ~seed ~ticks ())

let spec_of t = t.spec

let dim t = t.spec.s_dim
let ticks t = t.spec.s_ticks
let sessions t = Array.length t.plans

let total_rounds t =
  Array.fold_left (fun acc p -> acc + p.rounds) 0 t.plans

let peak_live t =
  (* Sweep open/close deltas over the tick line. *)
  let delta = Array.make (ticks t + 1) 0 in
  Array.iter
    (fun p ->
      delta.(p.arrival) <- delta.(p.arrival) + 1;
      delta.(p.arrival + p.rounds) <- delta.(p.arrival + p.rounds) - 1)
    t.plans;
  let live = ref 0 and peak = ref 0 in
  Array.iter
    (fun d ->
      live := !live + d;
      if !live > !peak then peak := !live)
    delta;
  !peak

let plans t = t.plans

let plan_instance t (p : plan) =
  let rng = Prng.Stream.named ~name:"open-world-session" ~seed:p.seed in
  let dim = dim t in
  match p.family with
  | 0 -> Clusters.generate ~dim ~t:p.rounds rng
  | 1 -> Bursts.generate ~dim ~t:p.rounds rng
  | 2 -> Random_walk.generate ~dim ~t:p.rounds rng
  | i -> invalid_arg (Printf.sprintf "Open_world.plan_instance: family %d" i)

let plan_cursor (s : spec) (p : plan) =
  let rng = Prng.Stream.named ~name:"open-world-session" ~seed:p.seed in
  match p.family with
  | 0 -> Clusters.cursor ~dim:s.s_dim rng
  | 1 -> Bursts.cursor ~dim:s.s_dim rng
  | 2 -> Random_walk.cursor ~dim:s.s_dim rng
  | i -> invalid_arg (Printf.sprintf "Open_world.plan_cursor: family %d" i)

(* The one tick loop behind [iter] and [iter_stream].  [admit ~tick]
   opens the tick's arrivals and returns them in id order, each with
   its round source.  Live sessions stay in id order (ids increase with
   arrival tick, so arrivals append and closes filter) — no hash
   iteration order anywhere. *)
let run_ticks ~ticks ~admit ~step ~close ~tick_end =
  let live = ref [] in
  for tick = 0 to ticks - 1 do
    live := !live @ admit ~tick;
    List.iter
      (fun ((p : plan), source) ->
        let round = tick - p.arrival in
        step p ~round (source round))
      !live;
    live :=
      List.filter
        (fun ((p : plan), _) ->
          let finished = tick - p.arrival = p.rounds - 1 in
          if finished then close p;
          not finished)
        !live;
    tick_end ~tick
  done

(* Materialized: plans come from the array, rounds from each session's
   instance, built at open and dropped at close. *)
let iter t ~open_ ~step ~close ~tick_end =
  let n = Array.length t.plans in
  let cursor = ref 0 in
  let admit ~tick =
    let opened = ref [] in
    while !cursor < n && t.plans.(!cursor).arrival = tick do
      let p = t.plans.(!cursor) in
      incr cursor;
      let inst = plan_instance t p in
      open_ p inst;
      opened := (p, Array.get inst.Mobile_server.Instance.steps) :: !opened
    done;
    List.rev !opened
  in
  run_ticks ~ticks:(ticks t) ~admit ~step ~close ~tick_end

(* Streaming: no plan array is ever built.  Plans come straight from
   [admissions] (field-identical to [of_spec]'s), and each admitted
   session holds only its plan and workload cursor, whose rounds are
   bit-identical to the materialized instance's ([Clusters.cursor] et
   al).  Live state is O(concurrently live sessions), independent of
   the schedule's total session count. *)
let iter_stream (s : spec) ~open_ ~step ~close ~tick_end =
  let admissions = admissions s in
  let admit ~tick =
    let opened = ref [] in
    admissions ~tick (fun p ->
        let start, next = plan_cursor s p in
        open_ p ~start;
        opened := (p, fun _ -> next ()) :: !opened);
    List.rev !opened
  in
  run_ticks ~ticks:s.s_ticks ~admit ~step ~close ~tick_end

let fingerprint t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "open-world-v1 dim=%d seed=%d ticks=%d rate=%Lx life=%Lx initial=%d\n"
       t.spec.s_dim t.spec.s_seed t.spec.s_ticks
       (Int64.bits_of_float t.spec.s_arrival_rate)
       (Int64.bits_of_float t.spec.s_mean_lifetime)
       t.spec.s_initial);
  Array.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%Ld %d %d %d %d\n" p.id p.seed p.family p.arrival
           p.rounds))
    t.plans;
  Digest.to_hex (Digest.string (Buffer.contents buf))
