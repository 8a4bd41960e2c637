(* perfbench: the repository's benchmark.  See perfbench/README.md. *)

open Perfbench

let held_out_seed = 90_017
let state_dir = ".perfbench"

let workload_run (r : Cli.run) =
  match r.workload with
  | "serve-plane" -> Serve_load.run Serve_load.plane ~seed:r.seed ~seconds:r.seconds ~trace:r.trace
  | "serve-line" -> Serve_load.run Serve_load.line ~seed:r.seed ~seconds:r.seconds ~trace:r.trace
  | _ -> Opt_sweep.run ~seed:r.seed ~seconds:r.seconds ~trace:r.trace

let next_run_index () =
  let path = Filename.concat state_dir "run_index" in
  let last =
    match In_channel.with_open_text path In_channel.input_all with
    | s -> Option.value (int_of_string_opt (String.trim s)) ~default:(-1)
    | exception Sys_error _ -> -1
  in
  Out_channel.with_open_text path (fun oc -> Printf.fprintf oc "%d\n" (last + 1));
  last + 1

let run (r : Cli.run) =
  match Compare.load_benchmark "BENCHMARK.json" with
  | Error msg ->
    prerr_endline ("perfbench: cannot read BENCHMARK.json: " ^ msg);
    1
  | Ok (e2e, layers) ->
    (try Sys.mkdir state_dir 0o755 with Sys_error _ -> ());
    let o = workload_run r in
    (* BENCHMARK.json is the list of what a run prints: every metric of
       the run's kind, in its order and unit.  A per-layer metric that
       the workload does not exercise reads 0. *)
    let wanted = if r.trace then layers else e2e in
    let problems = ref [] in
    let metrics =
      List.map
        (fun (name, unit_, _) ->
          match List.find_opt (fun (m : Outcome.metric) -> m.name = name) o.metrics with
          | Some m when m.unit_ = unit_ -> m
          | Some m ->
            problems := Printf.sprintf "%s measured in %s, listed in %s" name m.unit_ unit_ :: !problems;
            m
          | None ->
            if not r.trace then problems := Printf.sprintf "%s was not measured" name :: !problems;
            Outcome.metric name unit_ 0.0)
        wanted
    in
    List.iter
      (fun (m : Outcome.metric) ->
        if not (List.exists (fun (n, _, _) -> n = m.name) wanted) then
          problems := Printf.sprintf "%s is not listed in BENCHMARK.json" m.name :: !problems)
      o.metrics;
    let failures = o.failures @ List.rev !problems in
    let failed = o.failed + List.length !problems in
    let record =
      [
        ("workload", Json.Str r.workload);
        ("seed", Json.Num (float_of_int r.seed));
        ("held_out_seed", Json.Num (float_of_int held_out_seed));
        ("seconds", Json.Num (float_of_int r.seconds));
        ("trace", Json.Bool r.trace);
        ("run_index", Json.Num (float_of_int (next_run_index ())));
        ("commit", Json.Str (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown"));
        ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", Json.Str Sys.ocaml_version);
      ]
      @ o.record
    in
    List.iter (fun f -> Printf.printf "FAIL %s\n" f) failures;
    List.iter
      (fun (m : Outcome.metric) -> Printf.printf "%-34s %16s %s\n" m.name (Json.number m.value) m.unit_)
      metrics;
    Printf.printf "record %s\n" (Json.to_string (Json.Obj record));
    let result =
      [
        ("correct", Json.Bool (failed = 0));
        ("attempted", Json.Num (float_of_int o.attempted));
        ("failed", Json.Num (float_of_int failed));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (m : Outcome.metric) ->
                 (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
               metrics) );
      ]
    in
    Option.iter
      (fun path ->
        Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
            output_string oc (Json.to_string (Json.Obj (("record", Json.Obj record) :: result)));
            output_char oc '\n'))
      r.out;
    print_endline (Json.to_string (Json.Obj result));
    if failed = 0 then 0 else 1

let () =
  match Cli.parse (List.tl (Array.to_list Sys.argv)) with
  | Error msg ->
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline Cli.usage;
    exit 2
  | Ok Cli.Help -> print_endline Cli.usage
  | Ok (Cli.Compare (old_set, new_set)) ->
    exit (Compare.main ~bench:"BENCHMARK.json" old_set new_set)
  | Ok (Cli.Run r) -> exit (run r)
