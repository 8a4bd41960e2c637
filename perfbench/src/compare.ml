type bound = { better_lower : bool; bound : float option }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let ( let* ) = Result.bind

let metrics_of_benchmark json =
  let list key =
    match Json.member key json with Some (Json.Arr l) -> l | _ -> []
  in
  let entry j =
    match (Json.member "name" j, Json.member "unit" j) with
    | Some (Json.Str name), Some (Json.Str unit_) ->
      Ok
        ( name,
          unit_,
          {
            better_lower = Json.member "better" j = Some (Json.Str "lower");
            bound = Option.bind (Json.member "bound" j) Json.to_num;
          } )
    | _ -> Error "a metric in BENCHMARK.json lacks a name or a unit"
  in
  let all l =
    List.fold_right
      (fun j acc ->
        let* acc = acc in
        let* e = entry j in
        Ok (e :: acc))
      l (Ok [])
  in
  let* e2e = all (list "end_to_end") in
  let* layers = all (list "per_layer") in
  Ok (e2e, layers)

let load_benchmark path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | text ->
    let* json = Json.parse text in
    metrics_of_benchmark json

(* Tail latencies an untraced run reports in its record rather than as
   bounded metrics. *)
let record_tails = [ "latency_p90_ms"; "latency_p99_ms" ]

(* One result line written by [--out]: workload, traced or not, and
   metric values by name (the record's tail latencies included). *)
let parse_line line =
  let* json = Json.parse line in
  let record = Option.value (Json.member "record" json) ~default:Json.Null in
  match
    ( Option.bind (Json.member "workload" record) Json.to_str,
      Json.member "trace" record,
      Json.member "metrics" json )
  with
  | Some w, Some (Json.Bool trace), Some (Json.Obj metrics) ->
    let tails =
      List.filter_map
        (fun k -> Option.map (fun x -> (k, x)) (Option.bind (Json.member k record) Json.to_num))
        record_tails
    in
    Ok
      ( w,
        trace,
        tails
        @ List.filter_map
            (fun (k, v) ->
              Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.to_num))
            metrics )
  | _ -> Error "result line lacks record.workload, record.trace or metrics"

let load_set path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | text ->
    List.fold_left
      (fun acc line ->
        let* acc = acc in
        if String.trim line = "" then Ok acc
        else
          match parse_line line with
          | Ok r -> Ok (r :: acc)
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
      (Ok [])
      (String.split_on_char '\n' text)

let values set ~workload ~trace name =
  Array.of_list
    (List.filter_map
       (fun (w, t, ms) -> if w = workload && t = trace then List.assoc_opt name ms else None)
       set)

let verdict b ~old_v ~new_v =
  let _, mo, _ = Pct.quartiles old_v and _, mn, _ = Pct.quartiles new_v in
  let spread v =
    let q1, m, q3 = Pct.quartiles v in
    if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m
  in
  let so = spread old_v and sn = spread new_v in
  let better a c = if b.better_lower then a < c else a > c in
  let all_better = Array.for_all (fun n -> Array.for_all (fun o -> better n o) old_v) new_v in
  let all_worse = Array.for_all (fun n -> Array.for_all (fun o -> better o n) old_v) new_v in
  let worse_by = if mo = 0.0 then 0.0 else (if b.better_lower then mn -. mo else mo -. mn) /. Float.abs mo in
  match b.bound with
  | None -> "no bound"
  | Some bound ->
    if so > bound || sn > bound then
      if all_better then "better" else if all_worse then "worse" else "unresolved"
    else if worse_by > bound then "worse"
    else begin
      (* A gain needs the medians to differ by more than the old side's
         spread, and the new side's worse quartile to beat the old
         median. *)
      let q1n, _, q3n = Pct.quartiles new_v in
      let new_worse_quartile = if b.better_lower then q3n else q1n in
      if -.worse_by > so && better new_worse_quartile mo then "better" else "same"
    end

let main ~bench old_path new_path =
  match (load_benchmark bench, load_set old_path, load_set new_path) with
  | Error msg, _, _ | _, Error msg, _ | _, _, Error msg ->
    prerr_endline ("perfbench compare: " ^ msg);
    2
  | Ok (e2e, layers), Ok old_set, Ok new_set ->
    let workloads =
      List.sort_uniq compare (List.map (fun (w, _, _) -> w) (old_set @ new_set))
    in
    let worse = ref 0 in
    Printf.printf "%-12s %-34s %-6s %-44s %-44s %s\n" "workload" "metric" "unit"
      "old median [q1, q3] (n)" "new median [q1, q3] (n)" "verdict";
    let show trace (name, unit_, b) w =
      let old_v = values old_set ~workload:w ~trace name
      and new_v = values new_set ~workload:w ~trace name in
      let side v =
        if Array.length v = 0 then "-"
        else
          let q1, m, q3 = Pct.quartiles v in
          Printf.sprintf "%.6g [%.6g, %.6g] (%d)" m q1 q3 (Array.length v)
      in
      if Array.length old_v > 0 || Array.length new_v > 0 then begin
        let v =
          if Array.length old_v = 0 || Array.length new_v = 0 then "missing"
          else verdict b ~old_v ~new_v
        in
        if v = "worse" then incr worse;
        Printf.printf "%-12s %-34s %-6s %-44s %-44s %s\n" w name unit_ (side old_v) (side new_v) v
      end
    in
    let tails = List.map (fun k -> (k, "ms", { better_lower = true; bound = None })) record_tails in
    List.iter (fun w -> List.iter (fun m -> show false m w) (e2e @ tails)) workloads;
    List.iter (fun w -> List.iter (fun m -> show true m w) layers) workloads;
    if !worse > 0 then 1 else 0
