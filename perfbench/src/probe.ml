module Engine = Mobile_server.Engine
module Median = Geometry.Median

let config = Mobile_server.Config.make ~d_factor:2.0 ~move_limit:1.0 ~delta:0.5 ()

let sp_center = Trace.register "median.center"
let sp_session_step = Trace.register "engine.session_step"

type counts = {
  mutable centers : int;
  mutable iterative : int;
  mutable clamped : int;
}

let counts () = { centers = 0; iterative = 0; clamped = 0 }

type replica = { session : Engine.Session.t; mutable prev : Geometry.Vec.t option }

let replica ?rng ~start () =
  {
    session = Engine.Session.create ?rng config Mobile_server.Mtc.algorithm ~start;
    prev = None;
  }

let step tr c r ~owner requests =
  let n = Array.length requests in
  if n > 0 then begin
    let server = Engine.Session.position r.session in
    (* Mtc passes the previous center only when warm-starting. *)
    let init = if config.Mobile_server.Config.warm_start then r.prev else None in
    let center =
      Trace.span tr sp_center ~owner (fun () -> Median.center ?init ~server requests)
    in
    r.prev <- Some center;
    c.centers <- c.centers + 1;
    if n >= 3 && Array.length server >= 2 then c.iterative <- c.iterative + 1
  end;
  let record =
    Trace.span tr sp_session_step ~owner (fun () -> Engine.Session.step r.session requests)
  in
  if record.Engine.clamped then c.clamped <- c.clamped + 1;
  record

let metrics t c =
  let share a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  [
    Outcome.metric "median.center_us" "us" (Trace.mean t sp_center *. 1e6);
    Outcome.metric "median.iterative_share" "share" (share c.iterative c.centers);
    Outcome.metric "engine.session_step_us" "us" (Trace.mean t sp_session_step *. 1e6);
    Outcome.metric "engine.clamped_rounds" "count" (float_of_int c.clamped);
  ]
