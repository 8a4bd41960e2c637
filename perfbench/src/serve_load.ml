module Daemon = Serve.Daemon
module Frame = Serve.Frame
module Driver = Serve.Driver
module Open_world = Workloads.Open_world
module Samples = Pct.Samples

type shape = {
  dim : int;
  live : int;
  ticks : int;
  lifetime : float;
  rate : float;
}

(* serve-plane: 2-D rounds, where Median.center runs Weiszfeld's
   iteration on every round with three or more requests — the median
   and the engine round dominate a step.  serve-line: the same schedule
   shape in 1-D, where the center is a sort, so the codec, the daemon's
   queues and the client's digest are the bulk of a step.  Both keep
   10 000 sessions live, the smaller of [bench serve]'s two scales (with
   its lifetime and 8 shards), so a tick holds about 1 250 frames per
   shard and the closed loop overruns the 1 024-frame shard queues:
   backpressure is part of the load.  A pass is 4 ticks, as in [bench
   serve]'s streaming point, about 42 000 steps.  The paced rates are
   about a sixth of what one core sustains on either shape, so the open
   loop measures service latency, not a growing backlog, even when the
   core runs at half speed (at a third, the median latency of a slow
   minute already carries queueing). *)
let plane = { dim = 2; live = 10_000; ticks = 4; lifetime = 16.0; rate = 10_000.0 }
let line = { dim = 1; live = 10_000; ticks = 4; lifetime = 16.0; rate = 20_000.0 }

let shards = 8
let queue_capacity = 1024

let spec shape ~seed =
  Open_world.spec
    ~arrival_rate:(float_of_int shape.live /. shape.lifetime)
    ~mean_lifetime:shape.lifetime ~initial:shape.live ~dim:shape.dim ~seed
    ~ticks:shape.ticks ()

let now = Clock.now

let rec spin_until t =
  let x = now () in
  if x < t then spin_until t else x

let sp_client_submit = Trace.register "client.submit"
let sp_encode_request = Trace.register "frame.encode_request"
let sp_submit = Trace.register "daemon.submit"
let sp_flush = Trace.register "daemon.flush"
let sp_client_reply = Trace.register "client.reply"
let sp_await = Trace.register "daemon.await"
let sp_decode_reply = Trace.register "frame.decode_reply"
let sp_digest = Trace.register "digest.reply"
let sp_probe = Trace.register "probe"
let sp_decode_request = Trace.register "frame.decode_request"
let sp_encode_reply = Trace.register "frame.encode_reply"

type kind = K_open | K_step | K_close

type pend = { ticket : Daemon.ticket; kind : kind; sid : int64; due : float }

(* One phase's client state.  The tracer, the replicas and the batch
   counters are only used by a traced phase. *)
type ctx = {
  daemon : Daemon.t;
  tr : Trace.t option;
  probing : bool;
  log : Outcome.log;
  pending : pend Queue.t;
  mutable frames : int;
  mutable steps : int;
  latency_ms : Samples.t;
  lag_ms : Samples.t;
  mutable bytes : int;
  mutable flushes : int;
  mutable batch_frames : int;
  mutable imbalance : float;
  mutable backpressure : int;
  mutable flush_steps : int;
  mutable batch_steps : int;
  shard_load : int array;
  replicas : (int64, Probe.replica) Hashtbl.t;
  expected : Geometry.Vec.t Queue.t;
  probe : Probe.counts;
}

let ctx ?tr ?(probing = false) ~log daemon =
  {
    daemon;
    tr;
    probing;
    log;
    pending = Queue.create ();
    frames = 0;
    steps = 0;
    latency_ms = Samples.create ();
    lag_ms = Samples.create ();
    bytes = 0;
    flushes = 0;
    batch_frames = 0;
    imbalance = 0.0;
    backpressure = 0;
    flush_steps = 0;
    batch_steps = 0;
    shard_load = Array.make shards 0;
    replicas = Hashtbl.create 1024;
    expected = Queue.create ();
    probe = Probe.counts ();
  }

let traced c = Option.is_some c.tr

(* Close the current batch in the traced counters: its frame count and
   how unevenly [shard_of_session] spread it (max over mean frames per
   shard). *)
let note_batch c =
  let frames = Array.fold_left ( + ) 0 c.shard_load in
  if frames > 0 then begin
    let most = Array.fold_left max 0 c.shard_load in
    c.flushes <- c.flushes + 1;
    c.batch_frames <- c.batch_frames + frames;
    c.imbalance <-
      c.imbalance +. (float_of_int most /. (float_of_int frames /. float_of_int shards));
    c.flush_steps <- c.flush_steps + c.batch_steps;
    c.batch_steps <- 0;
    Array.fill c.shard_load 0 shards 0
  end

let same_vec a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let answers p = function
  | Frame.Opened { session } -> p.kind = K_open && Int64.equal session p.sid
  | Frame.Stepped { session; _ } -> p.kind = K_step && Int64.equal session p.sid
  | Frame.Closed { session; _ } -> p.kind = K_close && Int64.equal session p.sid
  | Frame.Snapshot _ | Frame.Error _ -> false

(* Trace-only checks and timings on a reply: the decoded reply must
   re-encode to the same bytes, and a step's position must equal the
   in-process Engine.Session replica's, bit for bit. *)
let probe_reply c p reply decoded =
  Trace.span c.tr sp_probe ~owner:(Int64.to_int p.sid) (fun () ->
      match decoded with
      | Error _ -> ()
      | Ok r ->
        let again =
          Trace.span c.tr sp_encode_reply ~owner:(Int64.to_int p.sid) (fun () ->
              Frame.encode_reply r)
        in
        if not (String.equal again reply) then
          Outcome.fail c.log "session %Ld: reply does not re-encode to its bytes" p.sid;
        (match r with
         | Frame.Stepped { position; _ } -> (
           match Queue.take_opt c.expected with
           | Some e when same_vec e position -> ()
           | _ ->
             Outcome.fail c.log "session %Ld: served position differs from the replica"
               p.sid)
         | _ -> ()))

let probe_submit c sid frame requests =
  let owner = Int64.to_int sid in
  Trace.span c.tr sp_probe ~owner (fun () ->
      ignore
        (Trace.span c.tr sp_decode_request ~owner (fun () -> Frame.decode_request frame));
      match requests with
      | None -> ()
      | Some requests -> (
        match Hashtbl.find_opt c.replicas sid with
        | None -> Outcome.fail c.log "session %Ld: step before open" sid
        | Some r ->
          let record = Probe.step c.tr c.probe r ~owner requests in
          Queue.add (Array.copy record.Mobile_server.Engine.position) c.expected))

(* Serve one pass over the schedule [spec].  Frames, and their order,
   are exactly those of [Driver.run_stream] on the same spec, so the
   returned chained reply digest must equal its [reply_digest].
   [pace = None] is the closed, tick-batched loop: submit the tick,
   flush, await and decode.  [pace = Some rate] is the open loop: step
   [k] is due at [t0 + k/rate], [t0] being when the sessions opened at
   tick 0 have been served; the coordinator submits whatever is due,
   flushes, and waits for the next due time. *)
let epoch c ~pace spec =
  let d = c.daemon and tr = c.tr in
  let digest = ref (Digest.string "serve-reply-stream-v1") in
  let handle p =
    let owner = Int64.to_int p.sid in
    let reply, decoded =
      Trace.span tr sp_client_reply ~owner (fun () ->
          let reply = Trace.span tr sp_await ~owner (fun () -> Daemon.await d p.ticket) in
          Trace.span tr sp_digest ~owner (fun () ->
              digest := Digest.string (!digest ^ reply));
          (reply, Trace.span tr sp_decode_reply ~owner (fun () -> Frame.decode_reply reply)))
    in
    let ok =
      match decoded with
      | Error msg ->
        Outcome.fail c.log "session %Ld: undecodable reply: %s" p.sid msg;
        false
      | Ok (Frame.Error { code; message; _ }) ->
        Outcome.fail c.log "session %Ld: error reply %s: %s" p.sid
          (Frame.error_code_to_string code) message;
        false
      | Ok r ->
        answers p r
        || (Outcome.fail c.log "session %Ld: reply does not answer its request" p.sid;
            false)
    in
    if p.kind = K_step then begin
      c.steps <- c.steps + 1;
      if Option.is_some pace then
        Samples.add c.latency_ms (if ok then (now () -. p.due) *. 1e3 else infinity)
    end;
    if c.probing then probe_reply c p reply decoded
  in
  let collect () =
    if not (Queue.is_empty c.pending) then begin
      if traced c then note_batch c;
      Trace.span tr sp_flush ~owner:c.flushes (fun () -> Daemon.flush d);
      Queue.iter handle c.pending;
      Queue.clear c.pending
    end
  in
  let submit kind sid request ~due ~requests =
    let owner = Int64.to_int sid in
    let frame =
      Trace.span tr sp_client_submit ~owner (fun () ->
          let frame =
            Trace.span tr sp_encode_request ~owner (fun () -> Frame.encode_request request)
          in
          if traced c then begin
            let sh = Daemon.shard_of_session d sid in
            (* Mirror of the daemon's backpressure rule: a full shard
               queue makes [submit] flush every shard first. *)
            if c.shard_load.(sh) >= queue_capacity then begin
              c.backpressure <- c.backpressure + 1;
              note_batch c
            end;
            c.shard_load.(sh) <- c.shard_load.(sh) + 1;
            if kind = K_step then c.batch_steps <- c.batch_steps + 1;
            c.bytes <- c.bytes + String.length frame
          end;
          let ticket = Trace.span tr sp_submit ~owner (fun () -> Daemon.submit d frame) in
          Queue.add { ticket; kind; sid; due } c.pending;
          frame)
    in
    c.frames <- c.frames + 1;
    if traced c then begin
      if Option.is_some pace && kind = K_step then
        Samples.add c.lag_ms ((now () -. due) *. 1e3);
      if c.probing then probe_submit c sid frame requests
    end
  in
  let next_step = ref 0 in
  let batch_at = ref neg_infinity in
  let t0 = ref nan in
  let due_of_step () =
    match pace with
    | None -> nan
    | Some rate ->
      if Float.is_nan !t0 then begin
        (* The clock starts once the opening burst is served: the
           sessions open at tick 0 are the epoch's set-up. *)
        collect ();
        t0 := now ()
      end;
      let due = !t0 +. (float_of_int !next_step /. rate) in
      incr next_step;
      if due > !batch_at then begin
        (* Nothing more is due: serve the batch, then wait. *)
        collect ();
        batch_at := spin_until due
      end;
      due
  in
  Open_world.iter_stream spec
    ~open_:(fun p ~start ->
      let sid = p.Open_world.id in
      if c.probing then
        Hashtbl.replace c.replicas sid
          (Probe.replica ~rng:(Daemon.session_rng ~seed:p.Open_world.seed)
             ~start:(Array.copy start) ());
      submit K_open sid
        (Frame.Open { session = sid; seed = p.Open_world.seed; start })
        ~due:nan ~requests:None)
    ~step:(fun p ~round:_ requests ->
      let due = due_of_step () in
      let sid = p.Open_world.id in
      submit K_step sid (Frame.Step { session = sid; requests }) ~due
        ~requests:(Some requests))
    ~close:(fun p ->
      let sid = p.Open_world.id in
      if c.probing then Hashtbl.remove c.replicas sid;
      submit K_close sid (Frame.Close { session = sid }) ~due:nan ~requests:None)
    ~tick_end:(fun ~tick:_ -> if Option.is_none pace then collect ());
  collect ();
  Digest.to_hex !digest

let frame_stream_digest spec =
  let digest = ref (Digest.string "perfbench-frames-v1") in
  let add r = digest := Digest.string (!digest ^ Frame.encode_request r) in
  Open_world.iter_stream spec
    ~open_:(fun p ~start ->
      add (Frame.Open { session = p.Open_world.id; seed = p.Open_world.seed; start }))
    ~step:(fun p ~round:_ requests ->
      add (Frame.Step { session = p.Open_world.id; requests }))
    ~close:(fun p -> add (Frame.Close { session = p.Open_world.id }))
    ~tick_end:(fun ~tick:_ -> ());
  Digest.to_hex !digest

(* --- phases ------------------------------------------------------------ *)

type pass = {
  wall : float;  (** summed epoch wall time *)
  steps : int;
  digests : (string * int) list;  (** per epoch: reply digest, steps *)
}

let saturate (c : ctx) spec ~budget ~min_epochs =
  let start = now () in
  let rec go p epochs =
    let steps0 = c.steps in
    let t0 = now () in
    let dg = epoch c ~pace:None spec in
    let dt = now () -. t0 in
    let steps = c.steps - steps0 in
    let p = { wall = p.wall +. dt; steps = p.steps + steps; digests = (dg, steps) :: p.digests } in
    if epochs + 1 < min_epochs || now () -. start < budget then go p (epochs + 1) else p
  in
  go { wall = 0.0; steps = 0; digests = [] } 0

(* One open-loop epoch: its reply digest and step count.  Its step
   latencies join [c.latency_ms]. *)
let paced (c : ctx) spec ~rate =
  let steps0 = c.steps in
  let dg = epoch c ~pace:(Some rate) spec in
  (dg, c.steps - steps0)

let create_daemon ~jobs =
  Daemon.create ~shards ~jobs ~queue_capacity ~journal:false ~config:Probe.config ()

(* --- the run ----------------------------------------------------------- *)

let run shape ~seed ~seconds ~trace =
  let jobs = Exec.default_jobs () in
  let log = Outcome.log () in
  let budget = float_of_int seconds in
  let setups = Samples.create () in
  (* Set-up: generate the schedule, materialise it to size the open
     loop, digest the frames it sends, and start the daemon. *)
  let setup () =
    let t0 = now () in
    let spec = spec shape ~seed in
    let per_epoch = Open_world.total_rounds (Open_world.of_spec spec) in
    let inputs = frame_stream_digest spec in
    let daemon = create_daemon ~jobs in
    Samples.add setups (now () -. t0);
    (spec, per_epoch, inputs, daemon)
  in
  let spec, per_epoch, inputs, daemon = setup () in
  let plain = ctx ~log daemon in
  let tails = ref [] in
  let digests = ref (saturate plain spec ~budget:0.0 ~min_epochs:1).digests in
  let metrics, frames =
    if not trace then begin
      (* Four closed-loop epochs, an open-loop epoch (about as long as
         six closed-loop ones) and a set-up alternate for the whole run,
         so a change in the machine's speed during the run reaches every
         metric alike.  A shared machine's speed can flip between a
         fast and a slow state every few seconds, so the figures pool
         the run:
         throughput is all closed-loop steps over all closed-loop time,
         latency the median of all paced steps.  A median over passes
         jumps between the two states from run to run. *)
      let sat_steps = ref 0 and sat_wall = ref 0.0 in
      let start = now () in
      let rec cycle () =
        let t0 = now () in
        (* Start each cycle on a settled heap, so the garbage of the
           previous set-up is not collected inside a timed epoch. *)
        Gc.full_major ();
        let sat = saturate plain spec ~budget:0.0 ~min_epochs:4 in
        sat_steps := !sat_steps + sat.steps;
        sat_wall := !sat_wall +. sat.wall;
        let epoch_digest = paced plain spec ~rate:shape.rate in
        digests := (epoch_digest :: sat.digests) @ !digests;
        let _, _, _, d = setup () in
        Daemon.shutdown d;
        (* Another cycle only if one as long as this one still fits, so
           a run takes its budget, not up to a cycle more. *)
        let t1 = now () in
        if t1 -. start +. (t1 -. t0) <= budget then cycle ()
      in
      cycle ();
      let lat = Samples.to_array plain.latency_ms in
      let p99 = Pct.summarize 0.99 lat in
      tails :=
        [
          ("latency_p90_ms", Json.Num (Pct.value (Pct.summarize 0.9 lat)));
          ("latency_p99_ms", Json.Num (Pct.value p99));
          ("latency_p99_basis", Json.Str (Pct.describe p99));
        ];
      ( [
          Outcome.metric "setup_s" "s" (Pct.median (Samples.to_array setups));
          Outcome.metric "throughput_per_s" "1/s" (float_of_int !sat_steps /. !sat_wall);
          Outcome.metric "latency_p50_ms" "ms" (Pct.median lat);
        ],
        plain.frames )
    end
    else begin
      let gc_before = Gc.quick_stat () in
      let sat = saturate plain spec ~budget:(budget /. 3.0) ~min_epochs:3 in
      let gc_after = Gc.quick_stat () in
      digests := sat.digests @ !digests;
      let paced_epochs = max 1 (int_of_float (budget /. 3.0 *. shape.rate /. float_of_int per_epoch)) in
      let tr_sat = Trace.create () and tr_paced = Trace.create () in
      let tc = ctx ~tr:tr_sat ~probing:true ~log daemon in
      let tsat = saturate tc spec ~budget:(budget /. 3.0) ~min_epochs:3 in
      let pc = ctx ~tr:tr_paced ~log daemon in
      let pd = List.init paced_epochs (fun _ -> paced pc spec ~rate:shape.rate) in
      digests := pd @ tsat.digests @ !digests;
      Trace.write tr_sat (Printf.sprintf ".perfbench/trace-serve-%dd-seed%d-saturate.tsv" shape.dim seed);
      Trace.write tr_paced (Printf.sprintf ".perfbench/trace-serve-%dd-seed%d-paced.tsv" shape.dim seed);
      let per_step x = x /. float_of_int (max 1 tsat.steps) in
      let top = [ sp_client_submit; sp_client_reply; sp_flush; sp_probe ] in
      let in_spans = List.fold_left (fun a k -> a +. Trace.total tr_sat k) 0.0 top in
      let probe_time = Trace.total tr_sat sp_probe in
      let untraced_per_step = sat.wall /. float_of_int (max 1 sat.steps) in
      let mean_us t k = Trace.mean t k *. 1e6 in
      let lag = Samples.to_array pc.lag_ms in
      ( Probe.metrics tr_sat tc.probe
        @ [
            Outcome.metric "frame.encode_request_us" "us" (mean_us tr_sat sp_encode_request);
            Outcome.metric "frame.decode_request_us" "us" (mean_us tr_sat sp_decode_request);
            Outcome.metric "frame.encode_reply_us" "us" (mean_us tr_sat sp_encode_reply);
            Outcome.metric "frame.decode_reply_us" "us" (mean_us tr_sat sp_decode_reply);
            Outcome.metric "frame.bytes_per_step" "bytes"
              (float_of_int tc.bytes /. float_of_int (max 1 tsat.steps));
            Outcome.metric "daemon.submit_us" "us" (mean_us tr_sat sp_submit);
            Outcome.metric "daemon.await_us" "us" (mean_us tr_sat sp_await);
            Outcome.metric "digest.reply_us" "us" (mean_us tr_sat sp_digest);
            Outcome.metric "daemon.flush_us_per_step" "us"
              (Trace.total tr_paced sp_flush *. 1e6 /. float_of_int (max 1 pc.flush_steps));
            Outcome.metric "daemon.batch_frames" "count"
              (float_of_int pc.batch_frames /. float_of_int (max 1 pc.flushes));
            Outcome.metric "daemon.shard_imbalance" "ratio"
              (pc.imbalance /. float_of_int (max 1 pc.flushes));
            Outcome.metric "daemon.backpressure_flushes" "count"
              (float_of_int (tc.backpressure + pc.backpressure));
            Outcome.metric "loadgen.step_us" "us" (per_step (tsat.wall -. in_spans) *. 1e6);
            Outcome.metric "loadgen.lag_ms" "ms"
              (if Array.length lag = 0 then 0.0 else Pct.value (Pct.summarize 0.99 lag));
            Outcome.metric "gc.minor_words_per_op" "words"
              ((gc_after.Gc.minor_words -. gc_before.Gc.minor_words)
               /. float_of_int (max 1 sat.steps));
            Outcome.metric "gc.major_collections" "count"
              (float_of_int (gc_after.Gc.major_collections - gc_before.Gc.major_collections));
            Outcome.metric "median.step_share" "share"
              (per_step (Trace.total tr_sat Probe.sp_center) /. untraced_per_step);
            Outcome.metric "trace.overhead_share" "share"
              (per_step (tsat.wall -. probe_time) /. untraced_per_step -. 1.0);
          ],
        plain.frames + tc.frames + pc.frames )
    end
  in
  Daemon.shutdown daemon;
  (* Correctness, outside the timed region: every epoch's chained reply
     digest must equal Driver.run_stream's on the same spec, and that
     reference run must itself pass the serve = engine identity. *)
  let reference =
    let d = create_daemon ~jobs in
    Fun.protect ~finally:(fun () -> Daemon.shutdown d) (fun () -> Driver.run_stream d spec)
  in
  if not (Driver.ok reference) then
    List.iter (fun m -> Outcome.fail log "reference run: %s" m)
      (if reference.Driver.mismatches = [] then [ "error replies" ]
       else reference.Driver.mismatches);
  let failed_steps =
    List.fold_left
      (fun acc (dg, steps) ->
        if String.equal dg reference.Driver.reply_digest then acc else acc + steps)
      0 !digests
  in
  if failed_steps > 0 then
    Outcome.note log "%d served step(s) in epochs whose reply digest differs from Driver.run_stream"
      failed_steps;
  {
    Outcome.attempted = frames;
    failed = log.Outcome.count + failed_steps;
    metrics;
    record =
      [
        ("jobs", Json.Num (float_of_int jobs));
        ("shards", Json.Num (float_of_int shards));
        ("steps_per_epoch", Json.Num (float_of_int per_epoch));
        ("paced_rate_per_s", Json.Num shape.rate);
        ("inputs_digest", Json.Str inputs);
        ("reply_digest", Json.Str reference.Driver.reply_digest);
      ]
      @ !tails;
    failures = Outcome.failures log;
  }
