(* Tests of the benchmark's own code: input determinism, the percentile
   rule, span self-time arithmetic, the strict command line and the
   compare verdicts. *)

open Perfbench

let small = { Serve_load.plane with live = 20; ticks = 4 }

let test_frame_digest () =
  let d seed = Serve_load.frame_stream_digest (Serve_load.spec small ~seed) in
  Alcotest.(check string) "same seed, same frames" (d 7) (d 7);
  Alcotest.(check bool) "another seed, other frames" false (String.equal (d 7) (d 8));
  let line seed = Serve_load.frame_stream_digest (Serve_load.spec { small with dim = 1 } ~seed) in
  Alcotest.(check bool) "the 1-D shape differs" false (String.equal (d 7) (line 7))

let test_cells_digest () =
  Alcotest.(check string) "same seed, same instances" (Opt_sweep.cells_digest ~seed:3)
    (Opt_sweep.cells_digest ~seed:3);
  Alcotest.(check bool) "another seed, other instances" false
    (String.equal (Opt_sweep.cells_digest ~seed:3) (Opt_sweep.cells_digest ~seed:4))

let test_cache_breaches () =
  let st ~misses ~hits = { Offline.Opt_cache.hits; misses; disk_hits = 0; evictions = 0 } in
  let b = Opt_sweep.cache_breaches ~rows:4 in
  Alcotest.(check int) "one miss per row, two hits per row" 0 (b (st ~misses:4 ~hits:8));
  Alcotest.(check int) "an extra miss" 1 (b (st ~misses:5 ~hits:8));
  Alcotest.(check int) "a missing hit" 1 (b (st ~misses:4 ~hits:7));
  Alcotest.(check int) "a hit served as a miss" 2 (b (st ~misses:5 ~hits:7))

let samples n = Array.init n (fun i -> float_of_int (n - i))

let pct =
  Alcotest.testable
    (fun ppf -> function
      | Pct.Quantile v -> Format.fprintf ppf "Quantile %g" v
      | Pct.Max { value; n } -> Format.fprintf ppf "Max %g of %d" value n)
    ( = )

let test_percentile_rule () =
  Alcotest.check pct "1000 samples support a p99" (Pct.Quantile 990.0)
    (Pct.summarize 0.99 (samples 1000));
  Alcotest.check pct "999 samples do not" (Pct.Max { value = 999.0; n = 999 })
    (Pct.summarize 0.99 (samples 999));
  Alcotest.check pct "20 samples support a median" (Pct.Quantile 10.0)
    (Pct.summarize 0.5 (samples 20));
  Alcotest.check pct "19 do not" (Pct.Max { value = 19.0; n = 19 })
    (Pct.summarize 0.5 (samples 19));
  Alcotest.check_raises "no samples" (Invalid_argument "Pct.summarize: no samples") (fun () ->
      ignore (Pct.summarize 0.99 [||]))

let test_quartiles () =
  let q = Alcotest.(triple (float 1e-12) (float 1e-12) (float 1e-12)) in
  (* Expected values from Python's statistics.quantiles(xs, n=4). *)
  Alcotest.check q "1..4" (1.25, 2.5, 3.75) (Pct.quartiles [| 4.; 1.; 3.; 2. |]);
  Alcotest.check q "1..10" (2.75, 5.5, 8.25) (Pct.quartiles (samples 10));
  Alcotest.check q "two samples" (0.0, 3.0, 6.0) (Pct.quartiles [| 5.; 1. |]);
  Alcotest.check q "three samples" (1.0, 2.0, 3.0) (Pct.quartiles [| 3.; 1.; 2. |])

let test_self_times () =
  (* 0: root [0, 10]; 1, 2: overlapping children [1, 3] and [2, 5];
     3: a child running past the root's end [9, 12]; 4: a grandchild
     [1.5, 2.5] under 1.  The root's children cover [1, 5] and [9, 10]. *)
  let parent = [| -1; 0; 0; 0; 1 |] in
  let start = [| 0.; 1.; 2.; 9.; 1.5 |] and stop = [| 10.; 3.; 5.; 12.; 2.5 |] in
  let self = Trace.self_times ~parent ~start ~stop 5 in
  Alcotest.(check (array (float 1e-12))) "self times" [| 5.; 1.; 3.; 3.; 1. |] self;
  let leaf = Trace.self_times ~parent:[| -1 |] ~start:[| 2. |] ~stop:[| 2.5 |] 1 in
  Alcotest.(check (array (float 1e-12))) "a leaf's self time is its duration" [| 0.5 |] leaf

let test_tracer () =
  let outer = Trace.register "test.outer" and inner = Trace.register "test.inner" in
  let t = Trace.create ~capacity:512 () in
  for i = 1 to 1000 do
    Trace.span (Some t) outer ~owner:i (fun () ->
        Trace.span (Some t) inner ~owner:i (fun () -> ignore (Sys.opaque_identity (Array.make 10 i))))
  done;
  Alcotest.(check int) "every span counted across folds" 1000 (Trace.count t outer);
  Alcotest.(check (float 1e-9)) "outer self = outer total - inner total"
    (Trace.total t outer -. Trace.total t inner) (Trace.self t outer);
  Alcotest.(check (float 1e-12)) "inner is a leaf" (Trace.total t inner) (Trace.self t inner);
  Alcotest.(check int) "no tracer, no span" 7 (Trace.span None outer ~owner:0 (fun () -> 7))

let parses args = match Cli.parse args with Ok _ -> true | Error _ -> false

let test_cli () =
  let base = [ "--workload"; "serve-plane"; "--seed"; "1" ] in
  Alcotest.(check bool) "minimal run" true (parses base);
  Alcotest.(check bool) "full run" true
    (parses (base @ [ "--seconds"; "20"; "--trace"; "1"; "--out"; "r.jsonl" ]));
  (match Cli.parse (base @ [ "--trace"; "1" ]) with
   | Ok (Cli.Run r) ->
     Alcotest.(check bool) "trace read" true r.Cli.trace;
     Alcotest.(check int) "seconds default" 10 r.Cli.seconds
   | _ -> Alcotest.fail "run expected");
  List.iter
    (fun (what, args) -> Alcotest.(check bool) what false (parses args))
    [
      ("unknown flag", base @ [ "--bogus"; "x" ]);
      ("unknown workload", [ "--workload"; "serve"; "--seed"; "1" ]);
      ("repeated flag", base @ [ "--seed"; "2" ]);
      ("missing value", base @ [ "--seconds" ]);
      ("missing seed", [ "--workload"; "opt-sweep" ]);
      ("bad trace", base @ [ "--trace"; "2" ]);
      ("bad seconds", base @ [ "--seconds"; "0" ]);
      ("positional", "serve" :: base);
      ("compare arity", [ "compare"; "a.jsonl" ]);
    ];
  Alcotest.(check bool) "compare" true (parses [ "compare"; "a.jsonl"; "b.jsonl" ])

let test_exit_code () =
  (* The built program rejects a bad command line with exit code 2,
     before any workload runs. *)
  let code args = Sys.command ("../main.exe " ^ args ^ " 2>/dev/null >/dev/null") in
  Alcotest.(check int) "unknown flag" 2 (code "--workload serve-plane --seed 1 --out x --bogus y");
  Alcotest.(check int) "unknown workload" 2 (code "--workload nope --seed 1")

let test_verdict () =
  let b = { Compare.better_lower = true; bound = Some 0.1 } in
  let tight base = Array.init 10 (fun i -> base *. (1.0 +. (0.001 *. float_of_int i))) in
  Alcotest.(check string) "same" "same" (Compare.verdict b ~old_v:(tight 1.0) ~new_v:(tight 1.01));
  Alcotest.(check string) "worse" "worse" (Compare.verdict b ~old_v:(tight 1.0) ~new_v:(tight 1.2));
  Alcotest.(check string) "better" "better" (Compare.verdict b ~old_v:(tight 1.0) ~new_v:(tight 0.9));
  let wide = Array.init 10 (fun i -> 1.0 +. (0.1 *. float_of_int i)) in
  Alcotest.(check string) "unresolved" "unresolved" (Compare.verdict b ~old_v:wide ~new_v:(tight 1.3))

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "frame stream digest" `Quick test_frame_digest;
          Alcotest.test_case "instance digest" `Quick test_cells_digest;
        ] );
      ("checks", [ Alcotest.test_case "cache counter breaches" `Quick test_cache_breaches ]);
      ( "percentiles",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self-time arithmetic" `Quick test_self_times;
          Alcotest.test_case "tracer aggregates" `Quick test_tracer;
        ] );
      ( "cli",
        [
          Alcotest.test_case "strict parsing" `Quick test_cli;
          Alcotest.test_case "exit code 2" `Quick test_exit_code;
        ] );
      ("compare", [ Alcotest.test_case "verdicts" `Quick test_verdict ]);
    ]
