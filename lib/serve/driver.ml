module Engine = Mobile_server.Engine
module Instance = Mobile_server.Instance
module Cost = Mobile_server.Cost
module Open_world = Workloads.Open_world

type report = {
  sessions : int;
  steps : int;
  errors : int;
  peak_live : int;
  latencies : float array;
  service_latencies : float array;
  mismatches : string list;
  reply_digest : string;
}

let max_reported = 8

let ok r = r.mismatches = [] && r.errors = 0

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

let same_vec a b =
  Array.length a = Array.length b && Array.for_all2 same_bits a b

(* Canonical position bytes for the trajectory digests: raw big-endian
   IEEE bits per coordinate ({!Frame}'s float convention), so equal
   digests mean bitwise-equal trajectories. *)
let vec_bytes v =
  let b = Bytes.create (8 * Array.length v) in
  Array.iteri
    (fun i x -> Bytes.set_int64_be b (i * 8) (Int64.bits_of_float x))
    v;
  Bytes.unsafe_to_string b

let traj_digest_seed = Digest.string "serve-traj-stream-v1"

type pending = {
  ticket : Daemon.ticket;
  is_step : bool;
  p_id : int64;
  t_submit : float;
}

(* The driver's bookkeeping: counters, the two latency series (per-step
   sojourn, per-tick service), the capped mismatch log and the chained
   reply digest. *)
type acc = {
  mutable a_sessions : int;
  mutable a_steps : int;
  mutable a_errors : int;
  mutable a_peak_live : int;
  mutable a_sojourn_rev : float list;
  mutable a_service_rev : float list;
  mutable a_mismatches_rev : string list;
  mutable a_mismatch_count : int;
  (* Chained digest over every reply frame in submission order: cheap,
     incremental, and equal iff the reply byte streams are identical. *)
  mutable a_digest : string;
}

let acc_create () =
  {
    a_sessions = 0;
    a_steps = 0;
    a_errors = 0;
    a_peak_live = 0;
    a_sojourn_rev = [];
    a_service_rev = [];
    a_mismatches_rev = [];
    a_mismatch_count = 0;
    a_digest = Digest.string "serve-reply-stream-v1";
  }

let flag acc fmt =
  Printf.ksprintf
    (fun s ->
      acc.a_mismatch_count <- acc.a_mismatch_count + 1;
      if acc.a_mismatch_count <= max_reported then
        acc.a_mismatches_rev <- s :: acc.a_mismatches_rev)
    fmt

let acc_report acc =
  {
    sessions = acc.a_sessions;
    steps = acc.a_steps;
    errors = acc.a_errors;
    peak_live = acc.a_peak_live;
    latencies = Array.of_list (List.rev acc.a_sojourn_rev);
    service_latencies = Array.of_list (List.rev acc.a_service_rev);
    mismatches = List.rev acc.a_mismatches_rev;
    reply_digest = Digest.to_hex acc.a_digest;
  }

(* What the close-time replica says a session should have served: the
   round and clamp counts, the final position, the cumulative cost and
   the chained digest of every per-round position. *)
type witness = {
  w_rounds : int;
  w_clamped : int;
  w_final : Geometry.Vec.t;
  w_cost : Cost.breakdown;
  w_digest : string;
}

(* Per-session driver state, O(1) per session in both modes: the plan
   plus the served round count and the chained digest of the served
   positions. *)
type session_state = {
  plan : Open_world.plan;
  mutable rounds : int;
  mutable digest : string;
}

let chain digest position = Digest.string (digest ^ vec_bytes position)

(* The one tick loop.  [schedule] drives the open/step/close/tick_end
   callbacks in {!Open_world.iter} order; [witness] replays a closed
   session's plan in-process.  Per tick the driver submits every frame,
   flushes, then awaits and decodes the replies in submission order,
   chaining each [Stepped] position into its session's digest; a
   [Closed] reply is compared bitwise with the session's witness. *)
let drive ?now daemon schedule witness =
  let states : (int64, session_state) Hashtbl.t = Hashtbl.create 1024 in
  let acc = acc_create () in
  let clock = match now with Some f -> f | None -> fun () -> 0. in
  let timing = now <> None in
  let verify st ~rounds ~clamped_rounds ~position ~move ~service =
    let id = st.plan.Open_world.id in
    let w = witness st.plan in
    if st.rounds <> w.w_rounds then
      flag acc "session %Ld: served %d rounds, engine replay has %d" id
        st.rounds w.w_rounds
    else if st.digest <> w.w_digest then
      flag acc "session %Ld: served trajectory diverges from engine" id;
    if rounds <> w.w_rounds then
      flag acc "session %Ld: daemon says %d rounds, engine %d" id rounds
        w.w_rounds;
    if clamped_rounds <> w.w_clamped then
      flag acc "session %Ld: daemon clamped %d rounds, engine %d" id
        clamped_rounds w.w_clamped;
    if not (same_vec position w.w_final) then
      flag acc "session %Ld: final position diverges from engine" id;
    if not (same_bits move w.w_cost.Cost.move) then
      flag acc "session %Ld: move cost %h diverges from engine %h" id move
        w.w_cost.Cost.move;
    if not (same_bits service w.w_cost.Cost.service) then
      flag acc "session %Ld: service cost %h diverges from engine %h" id
        service w.w_cost.Cost.service
  in
  let handle (p : pending) =
    let reply_bytes = Daemon.await daemon p.ticket in
    acc.a_digest <- Digest.string (acc.a_digest ^ reply_bytes);
    if timing && p.is_step then
      acc.a_sojourn_rev <- (clock () -. p.t_submit) :: acc.a_sojourn_rev;
    match Frame.decode_reply reply_bytes with
    | Error msg -> flag acc "undecodable reply for session %Ld: %s" p.p_id msg
    | Ok (Frame.Error { session; code; message }) ->
      acc.a_errors <- acc.a_errors + 1;
      flag acc "error reply for session %Ld: %s: %s" session
        (Frame.error_code_to_string code)
        message
    | Ok (Frame.Opened _ | Frame.Snapshot _) -> ()
    | Ok (Frame.Stepped { session; position; _ }) -> begin
        acc.a_steps <- acc.a_steps + 1;
        match Hashtbl.find_opt states session with
        | None -> flag acc "step reply for unknown session %Ld" session
        | Some st ->
          st.rounds <- st.rounds + 1;
          st.digest <- chain st.digest position
      end
    | Ok (Frame.Closed { session; rounds; clamped_rounds; position; move;
                         service }) -> begin
        match Hashtbl.find_opt states session with
        | None -> flag acc "close reply for unknown session %Ld" session
        | Some st ->
          verify st ~rounds ~clamped_rounds ~position ~move ~service;
          Hashtbl.remove states session
      end
  in
  let tick_pending = ref [] in
  let tick_steps = ref 0 in
  let submit (p : Open_world.plan) request =
    let ticket = Daemon.submit daemon (Frame.encode_request request) in
    let is_step = match request with Frame.Step _ -> true | _ -> false in
    if is_step then incr tick_steps;
    tick_pending :=
      { ticket; is_step; p_id = p.Open_world.id; t_submit = clock () }
      :: !tick_pending
  in
  (* Per tick: record the live high-water mark, then flush and time it.
     The per-tick service latency is flush seconds divided by the step
     frames served in the batch — what the daemon actually spends per
     step — as opposed to the per-step sojourn (submit→reply), which
     under tick batching is dominated by time spent queued behind the
     rest of the tick. *)
  let tick_end ~tick:_ =
    acc.a_peak_live <- Int.max acc.a_peak_live (Daemon.live_sessions daemon);
    let t0 = clock () in
    Daemon.flush daemon;
    if timing && !tick_steps > 0 then
      acc.a_service_rev <-
        ((clock () -. t0) /. float_of_int !tick_steps) :: acc.a_service_rev;
    List.iter handle (List.rev !tick_pending);
    tick_pending := [];
    tick_steps := 0
  in
  schedule
    ~open_:(fun (p : Open_world.plan) ~start ->
      acc.a_sessions <- acc.a_sessions + 1;
      Hashtbl.replace states p.Open_world.id
        { plan = p; rounds = 0; digest = traj_digest_seed };
      submit p
        (Frame.Open { session = p.Open_world.id; seed = p.Open_world.seed;
                      start }))
    ~step:(fun p ~round:_ requests ->
      submit p (Frame.Step { session = p.Open_world.id; requests }))
    ~close:(fun p -> submit p (Frame.Close { session = p.Open_world.id }))
    ~tick_end;
  if Hashtbl.length states <> 0 then
    flag acc "%d session(s) never closed" (Hashtbl.length states);
  acc_report acc

(* Materialized witness: [Engine.run] over the session's whole
   instance, its trajectory chained into the digest afterwards. *)
let run ?now daemon schedule =
  let witness p =
    let inst = Open_world.plan_instance schedule p in
    let r =
      Engine.run
        ~rng:(Daemon.session_rng ~seed:p.Open_world.seed)
        (Daemon.config daemon) Mobile_server.Mtc.algorithm inst
    in
    let n = Array.length r.Engine.positions in
    {
      w_rounds = n;
      w_clamped = r.Engine.clamped;
      w_final = r.Engine.positions.(n - 1);
      w_cost = r.Engine.cost;
      w_digest = Array.fold_left chain traj_digest_seed r.Engine.positions;
    }
  in
  drive ?now daemon
    (fun ~open_ ->
      Open_world.iter schedule ~open_:(fun p inst ->
          open_ p ~start:inst.Instance.start))
    witness

(* Streaming witness: [Engine.run_stream] over a fresh
   {!Open_world.plan_cursor}, chaining positions as they are traced —
   a request source independent of the one the schedule streamed. *)
let run_stream ?now daemon (spec : Open_world.spec) =
  let witness (p : Open_world.plan) =
    let start, next = Open_world.plan_cursor spec p in
    let digest = ref traj_digest_seed in
    let s =
      Engine.run_stream ~rng:(Daemon.session_rng ~seed:p.Open_world.seed)
        ~trace:(fun r -> digest := chain !digest r.Engine.position)
        (Daemon.config daemon) Mobile_server.Mtc.algorithm ~start
        ~rounds:p.Open_world.rounds
        (fun _ -> next ())
    in
    {
      w_rounds = s.Engine.s_rounds;
      w_clamped = s.Engine.s_clamped;
      w_final = s.Engine.s_final;
      w_cost = s.Engine.s_cost;
      w_digest = !digest;
    }
  in
  drive ?now daemon (Open_world.iter_stream spec) witness
