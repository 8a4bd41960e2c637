type run = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  out : string option;
}

type t = Run of run | Compare of string * string | Help

let workloads = [ "serve-plane"; "serve-line"; "opt-sweep" ]

let usage =
  "usage: perfbench --workload (serve-plane|serve-line|opt-sweep) --seed N\n\
  \                 [--seconds S] [--trace 0|1] [--out FILE]\n\
  \       perfbench compare OLD.jsonl NEW.jsonl"

let int_arg flag ~lo ~hi v =
  match int_of_string_opt v with
  | Some n when n >= lo && n <= hi -> Ok n
  | _ -> Error (Printf.sprintf "%s expects an integer in [%d, %d], got %S" flag lo hi v)

let ( let* ) = Result.bind

let parse_run args =
  let rec go acc = function
    | [] -> Ok acc
    | [ flag ] -> Error (Printf.sprintf "%s expects a value" flag)
    | flag :: v :: rest ->
      if List.mem_assoc flag acc then
        Error (Printf.sprintf "%s given more than once" flag)
      else if List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace"; "--out" ]
      then go ((flag, v) :: acc) rest
      else Error (Printf.sprintf "unknown argument %S" flag)
  in
  let* kv = go [] args in
  let find f = List.assoc_opt f kv in
  let* workload =
    match find "--workload" with
    | None -> Error "--workload is required"
    | Some w when List.mem w workloads -> Ok w
    | Some w -> Error (Printf.sprintf "unknown workload %S" w)
  in
  let* seed =
    match find "--seed" with
    | None -> Error "--seed is required"
    | Some v -> int_arg "--seed" ~lo:0 ~hi:max_int v
  in
  let* seconds =
    match find "--seconds" with
    | None -> Ok 10
    | Some v -> int_arg "--seconds" ~lo:1 ~hi:600 v
  in
  let* trace =
    match find "--trace" with
    | None | Some "0" -> Ok false
    | Some "1" -> Ok true
    | Some v -> Error (Printf.sprintf "--trace expects 0 or 1, got %S" v)
  in
  Ok (Run { workload; seed; seconds; trace; out = find "--out" })

let parse = function
  | [ ("-h" | "--help" | "help") ] -> Ok Help
  | [ "compare"; old_set; new_set ] -> Ok (Compare (old_set, new_set))
  | "compare" :: _ -> Error "compare expects exactly two result files"
  | args -> parse_run args
