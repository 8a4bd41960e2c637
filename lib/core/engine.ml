module Vec = Geometry.Vec

type step_record = {
  round : int;
  position : Vec.t;
  proposed : Vec.t;
  clamped : bool;
  cost : Cost.breakdown;
}

type run = {
  algorithm : string;
  config : Config.t;
  positions : Vec.t array;
  cost : Cost.breakdown;
  clamped : int;
}

(* A proposal counts as clamped when it overshoots the online budget
   beyond the same relative tolerance [Cost.feasible] uses — algorithms
   that clamp themselves (e.g. via [Algorithm.of_policy]) land within a
   few ulps of the budget and must not be counted.  A NaN distance
   compares false, so a non-finite proposal is not counted as clamped —
   it is a different violation, which the {!Analysis} auditor reports
   separately. *)
let clamp_tol = 1e-9

let exceeds_limit ~from ~limit proposed =
  Vec.dist from proposed > limit +. (clamp_tol *. Float.max 1.0 limit)

(* [Vec.move_towards] rejects a non-finite gap, so the engine decides
   explicitly what a non-finite proposal does: it poisons the position
   with NaNs (the pre-fix observable behavior), letting the {!Analysis}
   auditor report Non_finite_position / Non_finite_cost instead of the
   run dying mid-trajectory.  A finite proposal from a finite position
   goes through the ordinary clamp. *)
let is_finite_vec v = Array.for_all Float.is_finite v

let next_position ~from ~limit proposed =
  if Vec.dim proposed <> Vec.dim from then
    invalid_arg "Engine: proposal dimension mismatch";
  if is_finite_vec proposed && is_finite_vec from then
    Vec.clamp_step ~from limit proposed
  else Array.make (Vec.dim from) Float.nan

(* The round kernel — the only place a round's arithmetic happens.  In
   the paper's order: the stepper proposes, the proposal is tested
   against the online budget and clamped to it, and the round is
   charged (service plus [D] times the distance moved).  Every entry
   point below — batch, streaming, packed and incremental — plays its
   rounds through here, so they are bit-identical by construction. *)
let round config ~limit stepper ~from ~index requests =
  let proposed = stepper requests in
  let clamped = exceeds_limit ~from ~limit proposed in
  let position = next_position ~from ~limit proposed in
  let cost = Cost.step config ~from ~to_:position requests in
  { round = index; position; proposed; clamped; cost }

type stream_summary = {
  s_algorithm : string;
  s_rounds : int;
  s_clamped : int;
  s_cost : Cost.breakdown;
  s_final : Vec.t;
}

(* The one engine loop: round [r]'s requests come from [next r], in
   round order, and no trajectory is retained — live state is the
   stepper, the current position and the running totals, independent
   of [rounds]. *)
let run_stream ?rng ?trace config (alg : Algorithm.t) ~start ~rounds next =
  if rounds < 0 then invalid_arg "Engine.run_stream: rounds < 0";
  let stepper = alg.make ?rng config ~start in
  let limit = Config.online_limit config in
  let pos = ref start in
  let total = ref Cost.zero in
  let clamped = ref 0 in
  for index = 0 to rounds - 1 do
    let r = round config ~limit stepper ~from:!pos ~index (next index) in
    pos := r.position;
    if r.clamped then incr clamped;
    total := Cost.add !total r.cost;
    match trace with None -> () | Some f -> f r
  done;
  {
    s_algorithm = alg.name;
    s_rounds = rounds;
    s_clamped = !clamped;
    s_cost = !total;
    s_final = Vec.copy !pos;
  }

(* Request sources for the loop: [(start, rounds, next)]. *)
let of_instance (inst : Instance.t) =
  (inst.start, Instance.length inst, Array.get inst.steps)

(* Packed source: round [r]'s requests are materialized into a fixed
   set of scratch vectors, so no request is boxed per round and no
   per-round array is allocated.  [views.(n)] shares the first [n]
   scratch vectors; the stepper and the cost accounting see ordinary
   [Vec.t array] values with exactly the boxed coordinates, so a run
   is bit-identical to the unpacked instance's.  Contract: the
   algorithm must not retain the request array or its vectors across
   rounds — they are overwritten by the next round (every in-tree
   algorithm copies what it keeps). *)
let of_packed (p : Instance.Packed.t) =
  let rounds = Instance.Packed.length p in
  let points = Instance.Packed.points p in
  let max_r = ref 0 in
  for t = 0 to rounds - 1 do
    max_r := Stdlib.max !max_r (Instance.Packed.round_length p t)
  done;
  let scratch =
    Array.init !max_r (fun _ -> Array.make (Instance.Packed.dim p) 0.0)
  in
  let views = Array.init (!max_r + 1) (fun n -> Array.sub scratch 0 n) in
  let next index =
    let lo = Instance.Packed.round_start p index in
    let n = Instance.Packed.round_length p index in
    for i = 0 to n - 1 do
      Geometry.Points.get_into points (lo + i) scratch.(i)
    done;
    views.(n)
  in
  (Instance.Packed.start p, rounds, next)

let fold_run ?rng config (alg : Algorithm.t) (start, rounds, next) =
  let positions = Array.make rounds start in
  let s =
    run_stream ?rng config alg ~start ~rounds next
      ~trace:(fun r -> positions.(r.round) <- r.position)
  in
  { algorithm = alg.name; config; positions; cost = s.s_cost;
    clamped = s.s_clamped }

let fold_cost ?rng config alg (start, rounds, next) =
  Cost.total (run_stream ?rng config alg ~start ~rounds next).s_cost

let iter ?rng config alg inst f =
  let start, rounds, next = of_instance inst in
  ignore (run_stream ?rng ~trace:f config alg ~start ~rounds next)

let run ?rng config alg inst = fold_run ?rng config alg (of_instance inst)

let total_cost ?rng config alg inst =
  fold_cost ?rng config alg (of_instance inst)

let run_packed ?rng config alg p = fold_run ?rng config alg (of_packed p)

let total_cost_packed ?rng config alg p =
  fold_cost ?rng config alg (of_packed p)

module Session = struct
  type t = {
    stepper : Algorithm.stepper;
    limit : float;
    config : Config.t;
    dim : int;
    mutable position : Vec.t;
    mutable rounds : int;
    mutable clamped : int;
    mutable cost : Cost.breakdown;
  }

  let create ?rng config (alg : Algorithm.t) ~start =
    {
      stepper = alg.Algorithm.make ?rng config ~start;
      limit = Config.online_limit config;
      config;
      dim = Vec.dim start;
      position = Vec.copy start;
      rounds = 0;
      clamped = 0;
      cost = Cost.zero;
    }

  (* All request validation happens before the stepper is invoked: the
     stepper is a stateful closure, so calling it and then raising
     would leave a half-applied step (advanced algorithm state, stale
     session counters).  After an [Invalid_argument] from here the
     session is exactly as it was — the caller may drop the bad round
     and keep stepping, which the simtest harness's Reset-after-failure
     op relies on. *)
  let step session requests =
    Array.iter
      (fun v ->
        if Vec.dim v <> session.dim then
          invalid_arg "Engine.Session.step: request dimension mismatch";
        if not (is_finite_vec v) then
          invalid_arg "Engine.Session.step: non-finite request coordinate")
      requests;
    let r =
      round session.config ~limit:session.limit session.stepper
        ~from:session.position ~index:session.rounds requests
    in
    session.position <- r.position;
    session.cost <- Cost.add session.cost r.cost;
    if r.clamped then session.clamped <- session.clamped + 1;
    session.rounds <- session.rounds + 1;
    r

  let position session = Vec.copy session.position

  let rounds session = session.rounds

  let clamped_count session = session.clamped

  let cost session = session.cost
end

let replay config ~start positions inst =
  if not (Cost.feasible ~limit:(Config.offline_limit config) ~start positions)
  then invalid_arg "Engine.replay: trajectory exceeds the offline budget m";
  Cost.trajectory config ~start positions inst
