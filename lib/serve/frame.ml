let protocol_version = 1
let max_payload = 16 * 1024 * 1024

type request =
  | Open of { session : int64; seed : int; start : float array }
  | Step of { session : int64; requests : float array array }
  | Checkpoint of { session : int64 }
  | Close of { session : int64 }

type error_code = Bad_frame | Unknown_session | Duplicate_session | Bad_request

type reply =
  | Opened of { session : int64 }
  | Stepped of {
      session : int64;
      position : float array;
      move : float;
      service : float;
      clamped : bool;
    }
  | Snapshot of {
      session : int64;
      rounds : int;
      clamped_rounds : int;
      position : float array;
      move : float;
      service : float;
    }
  | Closed of {
      session : int64;
      rounds : int;
      clamped_rounds : int;
      position : float array;
      move : float;
      service : float;
    }
  | Error of { session : int64; code : error_code; message : string }

let error_code_to_string = function
  | Bad_frame -> "bad-frame"
  | Unknown_session -> "unknown-session"
  | Duplicate_session -> "duplicate-session"
  | Bad_request -> "bad-request"

(* --- opcodes ---------------------------------------------------------- *)

let op_open = 0x01
let op_step = 0x02
let op_checkpoint = 0x03
let op_close = 0x04
let op_opened = 0x81
let op_stepped = 0x82
let op_snapshot = 0x83
let op_closed = 0x84
let op_error = 0xFF

let error_code_byte = function
  | Bad_frame -> 0x01
  | Unknown_session -> 0x02
  | Duplicate_session -> 0x03
  | Bad_request -> 0x04

let error_code_of_byte = function
  | 0x01 -> Some Bad_frame
  | 0x02 -> Some Unknown_session
  | 0x03 -> Some Duplicate_session
  | 0x04 -> Some Bad_request
  | _ -> None

(* --- encoding --------------------------------------------------------- *)

let add_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

(* The field writers are total on their range and reject anything else:
   masking would emit a frame the decoder misreads (a 65 536-request
   step would decode as 0 requests plus trailing bytes). *)
let out_of_range bits v =
  invalid_arg
    (Printf.sprintf "Frame: %d does not fit an unsigned %d-bit field" v bits)

let add_u16 buf v =
  if v < 0 || v > 0xFFFF then out_of_range 16 v;
  add_u8 buf (v lsr 8);
  add_u8 buf v

let add_u32 buf v =
  if v < 0 || v > 0xFFFF_FFFF then out_of_range 32 v;
  add_u8 buf (v lsr 24);
  add_u8 buf (v lsr 16);
  add_u8 buf (v lsr 8);
  add_u8 buf v

let add_i64 buf v =
  for shift = 7 downto 0 do
    add_u8 buf (Int64.to_int (Int64.shift_right_logical v (shift * 8)))
  done

let add_f64 buf x = add_i64 buf (Int64.bits_of_float x)

let add_vec buf v =
  add_u16 buf (Array.length v);
  Array.iter (add_f64 buf) v

let frame payload =
  let n = String.length payload in
  if n > max_payload then
    invalid_arg
      (Printf.sprintf "Frame: payload of %d bytes exceeds max payload %d" n
         max_payload);
  let buf = Buffer.create (n + 4) in
  add_u32 buf n;
  Buffer.add_string buf payload;
  Buffer.contents buf

let payload ~opcode body =
  let buf = Buffer.create (String.length body + 2) in
  add_u8 buf protocol_version;
  add_u8 buf opcode;
  Buffer.add_string buf body;
  Buffer.contents buf

let body_of f =
  let buf = Buffer.create 64 in
  f buf;
  Buffer.contents buf

let encode_request req =
  let opcode, body =
    match req with
    | Open { session; seed; start } ->
      ( op_open,
        body_of (fun b ->
            add_i64 b session;
            add_i64 b (Int64.of_int seed);
            add_vec b start) )
    | Step { session; requests } ->
      ( op_step,
        body_of (fun b ->
            add_i64 b session;
            add_u16 b (Array.length requests);
            Array.iter (add_vec b) requests) )
    | Checkpoint { session } ->
      (op_checkpoint, body_of (fun b -> add_i64 b session))
    | Close { session } -> (op_close, body_of (fun b -> add_i64 b session))
  in
  frame (payload ~opcode body)

let encode_snapshotish b ~session ~rounds ~clamped_rounds ~position ~move
    ~service =
  add_i64 b session;
  add_u32 b rounds;
  add_u32 b clamped_rounds;
  add_vec b position;
  add_f64 b move;
  add_f64 b service

let encode_reply reply =
  let opcode, body =
    match reply with
    | Opened { session } -> (op_opened, body_of (fun b -> add_i64 b session))
    | Stepped { session; position; move; service; clamped } ->
      ( op_stepped,
        body_of (fun b ->
            add_i64 b session;
            add_u8 b (if clamped then 1 else 0);
            add_vec b position;
            add_f64 b move;
            add_f64 b service) )
    | Snapshot { session; rounds; clamped_rounds; position; move; service } ->
      ( op_snapshot,
        body_of
          (encode_snapshotish ~session ~rounds ~clamped_rounds ~position
             ~move ~service) )
    | Closed { session; rounds; clamped_rounds; position; move; service } ->
      ( op_closed,
        body_of
          (encode_snapshotish ~session ~rounds ~clamped_rounds ~position
             ~move ~service) )
    | Error { session; code; message } ->
      ( op_error,
        body_of (fun b ->
            add_i64 b session;
            add_u8 b (error_code_byte code);
            add_u16 b (String.length message);
            Buffer.add_string b message) )
  in
  frame (payload ~opcode body)

let max_message = 0xFFFF

let error ~session code message =
  let message =
    if String.length message <= max_message then message
    else String.sub message 0 max_message
  in
  Error { session; code; message }

(* --- decoding --------------------------------------------------------- *)

(* A tiny cursor over the payload bytes; every read is bounds-checked
   and failures carry the exact defect. *)
type cursor = { data : string; mutable pos : int }

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let need c n what =
  if c.pos + n > String.length c.data then
    malformed "truncated body: %s needs %d byte(s), %d left" what n
      (String.length c.data - c.pos)

let u8 c what =
  need c 1 what;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let u16 c what =
  let hi = u8 c what in
  let lo = u8 c what in
  (hi lsl 8) lor lo

let u32 c what =
  let hi = u16 c what in
  let lo = u16 c what in
  (hi lsl 16) lor lo

let i64 c what =
  need c 8 what;
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (u8 c what))
  done;
  !v

let f64 c what = Int64.float_of_bits (i64 c what)

let vec ?(reject_non_finite = false) c what =
  let dim = u16 c (what ^ " dimension") in
  if dim = 0 then malformed "%s has dimension 0" what;
  Array.init dim (fun i ->
      let x = f64 c what in
      if reject_non_finite && not (Float.is_finite x) then
        malformed "non-finite coordinate %d in %s" i what;
      x)

let done_ c =
  if c.pos <> String.length c.data then
    malformed "trailing %d byte(s) after frame body"
      (String.length c.data - c.pos)

(* Strip the length prefix of exactly one frame and return its payload. *)
let unframe s =
  let len = String.length s in
  if len < 4 then
    malformed "truncated length prefix: %d byte(s), need 4" len;
  let n =
    (Char.code s.[0] lsl 24)
    lor (Char.code s.[1] lsl 16)
    lor (Char.code s.[2] lsl 8)
    lor Char.code s.[3]
  in
  if n > max_payload then
    malformed "length prefix %d exceeds max payload %d" n max_payload;
  if len < 4 + n then
    malformed "truncated frame: length prefix says %d, %d byte(s) follow" n
      (len - 4);
  if len > 4 + n then
    malformed "trailing %d byte(s) after frame" (len - 4 - n);
  String.sub s 4 n

let header c =
  let version = u8 c "version tag" in
  if version <> protocol_version then
    malformed "bad version tag 0x%02x (expected 0x%02x)" version
      protocol_version;
  u8 c "opcode"

let decode_request s =
  match
    let c = { data = unframe s; pos = 0 } in
    let opcode = header c in
    let req =
      if opcode = op_open then begin
        let session = i64 c "session id" in
        let seed = Int64.to_int (i64 c "seed") in
        let start = vec ~reject_non_finite:true c "start position" in
        Open { session; seed; start }
      end
      else if opcode = op_step then begin
        let session = i64 c "session id" in
        let count = u16 c "request count" in
        let requests =
          Array.init count (fun i ->
              vec ~reject_non_finite:true c
                (Printf.sprintf "request %d" i))
        in
        Step { session; requests }
      end
      else if opcode = op_checkpoint then
        Checkpoint { session = i64 c "session id" }
      else if opcode = op_close then Close { session = i64 c "session id" }
      else malformed "unknown request opcode 0x%02x" opcode
    in
    done_ c;
    req
  with
  | req -> Ok req
  | exception Malformed msg -> Error msg

let decode_reply s =
  match
    let c = { data = unframe s; pos = 0 } in
    let opcode = header c in
    let snapshotish mk =
      let session = i64 c "session id" in
      let rounds = u32 c "round count" in
      let clamped_rounds = u32 c "clamp count" in
      let position = vec c "position" in
      let move = f64 c "movement cost" in
      let service = f64 c "service cost" in
      mk ~session ~rounds ~clamped_rounds ~position ~move ~service
    in
    let reply =
      if opcode = op_opened then Opened { session = i64 c "session id" }
      else if opcode = op_stepped then begin
        let session = i64 c "session id" in
        let flags = u8 c "flags" in
        if flags land lnot 1 <> 0 then
          malformed "unknown flag bits 0x%02x" flags;
        let position = vec c "position" in
        let move = f64 c "movement cost" in
        let service = f64 c "service cost" in
        Stepped { session; position; move; service; clamped = flags land 1 = 1 }
      end
      else if opcode = op_snapshot then
        snapshotish (fun ~session ~rounds ~clamped_rounds ~position ~move
                         ~service ->
            Snapshot { session; rounds; clamped_rounds; position; move; service })
      else if opcode = op_closed then
        snapshotish (fun ~session ~rounds ~clamped_rounds ~position ~move
                         ~service ->
            Closed { session; rounds; clamped_rounds; position; move; service })
      else if opcode = op_error then begin
        let session = i64 c "session id" in
        let code_byte = u8 c "error code" in
        let code =
          match error_code_of_byte code_byte with
          | Some code -> code
          | None -> malformed "unknown error code 0x%02x" code_byte
        in
        let len = u16 c "message length" in
        need c len "message";
        let message = String.sub c.data c.pos len in
        c.pos <- c.pos + len;
        Error { session; code; message }
      end
      else malformed "unknown reply opcode 0x%02x" opcode
    in
    done_ c;
    reply
  with
  | reply -> Ok reply
  | exception Malformed msg -> Error msg

let split stream =
  match
    let len = String.length stream in
    let rec cut pos acc =
      if pos = len then List.rev acc
      else begin
        if pos + 4 > len then
          malformed "truncated length prefix: %d byte(s), need 4" (len - pos);
        let n =
          (Char.code stream.[pos] lsl 24)
          lor (Char.code stream.[pos + 1] lsl 16)
          lor (Char.code stream.[pos + 2] lsl 8)
          lor Char.code stream.[pos + 3]
        in
        if n > max_payload then
          malformed "length prefix %d exceeds max payload %d" n max_payload;
        if pos + 4 + n > len then
          malformed "truncated frame: length prefix says %d, %d byte(s) follow"
            n (len - pos - 4);
        cut (pos + 4 + n) (String.sub stream pos (4 + n) :: acc)
      end
    in
    cut 0 []
  with
  | frames -> Ok frames
  | exception Malformed msg -> Error msg
