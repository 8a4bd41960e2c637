type metric = { name : string; value : float; unit_ : string }

type t = {
  attempted : int;
  failed : int;
  metrics : metric list;
  record : (string * Json.t) list;
  failures : string list;
}

let metric name unit_ value = { name; value; unit_ }

(* A bounded log of failure descriptions; [failed] counts them all. *)
type log = { mutable count : int; mutable first_rev : string list }

let log () = { count = 0; first_rev = [] }

let fail log fmt =
  Printf.ksprintf
    (fun s ->
      log.count <- log.count + 1;
      if log.count <= 8 then log.first_rev <- s :: log.first_rev)
    fmt

let note log fmt =
  Printf.ksprintf (fun s -> log.first_rev <- s :: log.first_rev) fmt

let failures log = List.rev log.first_rev
