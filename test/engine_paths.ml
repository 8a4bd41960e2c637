(* Five-path engine differential, shared by the stream and packed
   suites: [Engine.run], [Engine.run_packed], [Engine.run_stream
   ~trace], [Engine.iter] and an [Engine.Session] replay must agree
   bit for bit on every per-round record (position, proposal, clamp
   flag, move and service cost) and on every total.  The algorithm is
   a generated input, so the clamp and NaN-poison branches are
   compared as well as the well-behaved MtC round. *)

module Vec = Geometry.Vec
module MS = Mobile_server
module Config = MS.Config
module Instance = MS.Instance
module Cost = MS.Cost
module Engine = MS.Engine

let same_bits a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_vec (a : Vec.t) (b : Vec.t) =
  Vec.dim a = Vec.dim b && Array.for_all2 same_bits a b

let same_cost (a : Cost.breakdown) (b : Cost.breakdown) =
  same_bits a.Cost.move b.Cost.move && same_bits a.Cost.service b.Cost.service

(* Proposes twice the online budget along the first axis every round,
   so every round is clamped. *)
let overstepper =
  {
    MS.Algorithm.name = "overstepper";
    make =
      (fun ?rng:_ config ~start ->
        let limit = Config.online_limit config in
        let pos = ref (Vec.copy start) in
        fun _requests ->
          let target = Vec.copy !pos in
          target.(0) <- target.(0) +. (2.0 *. limit);
          pos := Vec.clamp_step ~from:!pos limit target;
          target);
  }

(* Jumps to the round's first request (clamped when it is far), but
   answers all-NaN every third round: the engine must poison the
   position identically on every path. *)
let nan_proposer =
  {
    MS.Algorithm.name = "nan-proposer";
    make =
      (fun ?rng:_ _config ~start ->
        let calls = ref 0 in
        fun requests ->
          incr calls;
          if !calls mod 3 = 0 then Array.make (Vec.dim start) Float.nan
          else if Array.length requests = 0 then Vec.copy start
          else Vec.copy requests.(0));
  }

let algorithms = [| MS.Mtc.algorithm; overstepper; nan_proposer |]

let algorithm_gen =
  QCheck.make
    ~print:(fun (a : MS.Algorithm.t) -> a.MS.Algorithm.name)
    (QCheck.Gen.oneofa algorithms)

let same_record (a : Engine.step_record) (b : Engine.step_record) =
  a.Engine.round = b.Engine.round
  && same_vec a.Engine.position b.Engine.position
  && same_vec a.Engine.proposed b.Engine.proposed
  && Bool.equal a.Engine.clamped b.Engine.clamped
  && same_cost a.Engine.cost b.Engine.cost

let fail what (alg : MS.Algorithm.t) =
  QCheck.Test.fail_reportf "%s: %s diverges" alg.MS.Algorithm.name what

let check what alg ok = ok || fail what alg

(* [agree config alg inst] holds iff all five paths agree bitwise. *)
let agree config (alg : MS.Algorithm.t) (inst : Instance.t) =
  let rounds = Instance.length inst in
  let collect () =
    let acc = ref [] in
    ((fun r -> acc := r :: !acc), fun () -> Array.of_list (List.rev !acc))
  in
  let on_iter, iter_records = collect () in
  Engine.iter config alg inst on_iter;
  let iter_records = iter_records () in
  let on_stream, stream_records = collect () in
  let summary =
    Engine.run_stream ~trace:on_stream config alg ~start:inst.Instance.start
      ~rounds (fun i -> inst.Instance.steps.(i))
  in
  let stream_records = stream_records () in
  let session = Engine.Session.create config alg ~start:inst.Instance.start in
  let session_records =
    Array.map (Engine.Session.step session) inst.Instance.steps
  in
  let run = Engine.run config alg inst in
  let packed = Engine.run_packed config alg (Instance.pack inst) in
  let folded, clamps =
    Array.fold_left
      (fun (cost, n) (r : Engine.step_record) ->
        (Cost.add cost r.Engine.cost, if r.Engine.clamped then n + 1 else n))
      (Cost.zero, 0) iter_records
  in
  let positions =
    Array.map (fun (r : Engine.step_record) -> r.Engine.position) iter_records
  in
  let same_run (r : Engine.run) =
    Array.length r.Engine.positions = rounds
    && Array.for_all2 same_vec r.Engine.positions positions
    && r.Engine.clamped = clamps
    && same_cost r.Engine.cost folded
  in
  check "iter record count" alg (Array.length iter_records = rounds)
  && check "run_stream records" alg
       (Array.length stream_records = rounds
       && Array.for_all2 same_record iter_records stream_records)
  && check "Session records" alg
       (Array.for_all2 same_record iter_records session_records)
  && check "run" alg (same_run run)
  && check "run_packed" alg (same_run packed)
  && check "run_stream summary" alg
       (summary.Engine.s_rounds = rounds
       && summary.Engine.s_clamped = clamps
       && same_cost summary.Engine.s_cost folded
       && same_vec summary.Engine.s_final positions.(rounds - 1))
  && check "Session totals" alg
       (Engine.Session.rounds session = rounds
       && Engine.Session.clamped_count session = clamps
       && same_cost (Engine.Session.cost session) folded
       && same_vec (Engine.Session.position session) positions.(rounds - 1))
  && check "total_cost" alg
       (same_bits (Engine.total_cost config alg inst) (Cost.total folded))
  && check "total_cost_packed" alg
       (same_bits
          (Engine.total_cost_packed config alg (Instance.pack inst))
          (Cost.total folded))
