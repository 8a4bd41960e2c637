(* Tests for the geometry library: vectors and geometric medians. *)

module Vec = Geometry.Vec
module Median = Geometry.Median

let check_float = Alcotest.(check (float 1e-9))
let check_loose = Alcotest.(check (float 1e-6))

let vec = Alcotest.testable (Fmt.of_to_string Vec.to_string) (Vec.equal ~eps:1e-9)

(* --- Vec ----------------------------------------------------------- *)

let vec_basics () =
  let v = Vec.make2 3.0 4.0 in
  Alcotest.check vec "add" [| 4.0; 6.0 |] (Vec.add v (Vec.make2 1.0 2.0));
  Alcotest.check vec "sub" [| 2.0; 2.0 |] (Vec.sub v (Vec.make2 1.0 2.0));
  Alcotest.check vec "scale" [| 6.0; 8.0 |] (Vec.scale 2.0 v);
  Alcotest.check vec "neg" [| -3.0; -4.0 |] (Vec.neg v);
  check_float "dot" 11.0 (Vec.dot v (Vec.make2 1.0 2.0));
  check_float "norm" 5.0 (Vec.norm v);
  check_float "norm2" 25.0 (Vec.norm2 v);
  check_float "dist" 5.0 (Vec.dist v (Vec.zero 2));
  Alcotest.(check int) "dim" 2 (Vec.dim v);
  check_float "x" 3.0 (Vec.x v);
  check_float "y" 4.0 (Vec.y v)

let vec_dim_mismatch () =
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Vec.add: dimension mismatch (2 vs 1)") (fun () ->
      ignore (Vec.add (Vec.make2 1.0 2.0) (Vec.make1 1.0)))

let vec_zero_invalid () =
  Alcotest.check_raises "zero dim" (Invalid_argument
    "Vec.zero: dimension must be positive")
    (fun () -> ignore (Vec.zero 0))

let vec_norm_overflow_safe () =
  (* Naive sum of squares would overflow to infinity. *)
  let v = [| 1e200; 1e200 |] in
  check_loose "scaled norm" (1e200 *. sqrt 2.0 /. 1e200)
    (Vec.norm v /. 1e200)

let vec_norm_empty_direction () =
  Alcotest.(check (option vec)) "normalize zero" None
    (Vec.normalize (Vec.zero 3))

let vec_normalize () =
  match Vec.normalize (Vec.make2 3.0 4.0) with
  | None -> Alcotest.fail "expected Some"
  | Some u ->
    check_float "unit" 1.0 (Vec.norm u);
    Alcotest.check vec "direction" [| 0.6; 0.8 |] u

let vec_lerp () =
  let a = Vec.make2 0.0 0.0 and b = Vec.make2 2.0 4.0 in
  Alcotest.check vec "midpoint" [| 1.0; 2.0 |] (Vec.lerp a b 0.5);
  Alcotest.check vec "at 0" a (Vec.lerp a b 0.0);
  Alcotest.check vec "at 1" b (Vec.lerp a b 1.0)

let vec_move_towards () =
  let p = Vec.zero 2 and target = Vec.make2 10.0 0.0 in
  Alcotest.check vec "partial" [| 3.0; 0.0 |] (Vec.move_towards p target 3.0);
  Alcotest.check vec "overshoot clamps" target (Vec.move_towards p target 100.0);
  Alcotest.check vec "zero distance" p (Vec.move_towards p target 0.0);
  Alcotest.check_raises "negative distance"
    (Invalid_argument "Vec.move_towards: negative distance") (fun () ->
      ignore (Vec.move_towards p target (-1.0)))

let vec_move_towards_self () =
  let p = Vec.make2 1.0 1.0 in
  Alcotest.check vec "same point" p (Vec.move_towards p p 5.0)

let vec_move_towards_non_finite () =
  (* A NaN coordinate used to propagate silently: the gap compared
     false against the distance and the caller got a NaN vector back.
     Now the non-finite gap is rejected up front. *)
  let p = Vec.zero 2 in
  let nan_target = Vec.make2 Float.nan 1.0 in
  Alcotest.check_raises "nan target"
    (Invalid_argument "Vec.move_towards: non-finite gap") (fun () ->
      ignore (Vec.move_towards p nan_target 1.0));
  let inf_target = Vec.make2 Float.infinity 0.0 in
  Alcotest.check_raises "infinite target"
    (Invalid_argument "Vec.move_towards: non-finite gap") (fun () ->
      ignore (Vec.move_towards p inf_target 1.0));
  Alcotest.check_raises "nan source"
    (Invalid_argument "Vec.move_towards: non-finite gap") (fun () ->
      ignore (Vec.move_towards nan_target p 1.0))

let vec_clamp_step () =
  let from = Vec.zero 2 in
  let target = Vec.make2 10.0 0.0 in
  Alcotest.check vec "clamped" [| 2.0; 0.0 |]
    (Vec.clamp_step ~from 2.0 target);
  Alcotest.check vec "within limit" target (Vec.clamp_step ~from 20.0 target)

let vec_centroid () =
  let ps = [| Vec.make2 0.0 0.0; Vec.make2 2.0 0.0; Vec.make2 1.0 3.0 |] in
  Alcotest.check vec "centroid" [| 1.0; 1.0 |] (Vec.centroid ps);
  Alcotest.check_raises "empty" (Invalid_argument "Vec.centroid: empty array")
    (fun () -> ignore (Vec.centroid [||]))

let vec_pp () =
  Alcotest.(check string) "render" "(1, 2.5)"
    (Vec.to_string (Vec.make2 1.0 2.5))

(* --- Median: 1-D --------------------------------------------------- *)

let median_1d_odd () =
  check_float "odd count" 2.0 (Median.median_1d [| 5.0; 1.0; 2.0 |])

let median_1d_even_tie_break () =
  let xs = [| 0.0; 10.0 |] in
  check_float "tie toward 4" 4.0 (Median.median_1d ~tie_break:4.0 xs);
  check_float "tie clamped low" 0.0 (Median.median_1d ~tie_break:(-3.0) xs);
  check_float "tie clamped high" 10.0 (Median.median_1d ~tie_break:99.0 xs)

let median_1d_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Median.median_1d: empty array") (fun () ->
      ignore (Median.median_1d [||]))

let median_1d_optimal () =
  (* The returned point minimizes the sum of absolute deviations. *)
  let xs = [| 1.0; 4.0; 6.0; 9.0; 9.5 |] in
  let m = Median.median_1d xs in
  let cost c = Array.fold_left (fun acc x -> acc +. Float.abs (c -. x)) 0.0 xs in
  Array.iter
    (fun candidate ->
      if cost m > cost candidate +. 1e-9 then
        Alcotest.failf "median %g beaten by %g" m candidate)
    [| 0.0; 2.0; 5.0; 6.0; 7.0; 9.0; 12.0 |]

(* --- Median: Weiszfeld --------------------------------------------- *)

let weiszfeld_single () =
  Alcotest.check vec "single point" [| 2.0; 3.0 |]
    (Median.weiszfeld [| Vec.make2 2.0 3.0 |])

let weiszfeld_triangle () =
  (* Equilateral triangle: the median is the centroid. *)
  let ps =
    [| Vec.make2 0.0 0.0; Vec.make2 1.0 0.0; Vec.make2 0.5 (sqrt 3.0 /. 2.0) |]
  in
  let m = Median.weiszfeld ps in
  let c = Vec.centroid ps in
  if Vec.dist m c > 1e-6 then
    Alcotest.failf "median %s far from centroid %s" (Vec.to_string m)
      (Vec.to_string c)

let weiszfeld_majority_anchor () =
  (* A point holding a strict majority of the mass is the median. *)
  let p = Vec.make2 1.0 1.0 in
  let ps = [| p; p; p; Vec.make2 5.0 5.0; Vec.make2 (-2.0) 0.0 |] in
  let m = Median.weiszfeld ps in
  if Vec.dist m p > 1e-6 then
    Alcotest.failf "median should stick to the majority point, got %s"
      (Vec.to_string m)

let weiszfeld_anchor_interior () =
  (* An input point that is NOT the median must not trap the iteration
     (Vardi-Zhang modification): median of 4 points where one input is
     at the centroid-ish location. *)
  let ps =
    [|
      Vec.make2 0.0 0.0; Vec.make2 10.0 0.0; Vec.make2 0.0 10.0;
      Vec.make2 10.0 10.0; Vec.make2 5.0 5.0;
    |]
  in
  let m = Median.weiszfeld ps in
  (* Symmetric configuration: median is the center (5,5). *)
  if Vec.dist m (Vec.make2 5.0 5.0) > 1e-6 then
    Alcotest.failf "median should be the center, got %s" (Vec.to_string m)

let weiszfeld_collinear_even () =
  (* Four collinear points: minimizer set is the middle segment;
     tie-break picks the point closest to the given server. *)
  let ps =
    [| Vec.make2 0.0 0.0; Vec.make2 1.0 1.0; Vec.make2 3.0 3.0;
       Vec.make2 4.0 4.0 |]
  in
  let m = Median.weiszfeld ~tie_break:(Vec.make2 2.0 2.0) ps in
  if Vec.dist m (Vec.make2 2.0 2.0) > 1e-6 then
    Alcotest.failf "tie-break ignored, got %s" (Vec.to_string m);
  let m2 = Median.weiszfeld ~tie_break:(Vec.make2 0.0 0.0) ps in
  if Vec.dist m2 (Vec.make2 1.0 1.0) > 1e-6 then
    Alcotest.failf "clamp to segment end failed, got %s" (Vec.to_string m2)

let weiszfeld_mixed_dims () =
  Alcotest.check_raises "mixed dims"
    (Invalid_argument "Median.weiszfeld: mixed dimensions") (fun () ->
      ignore (Median.weiszfeld [| Vec.make2 0.0 0.0; Vec.make1 1.0 |]))

let weiszfeld_1d_delegates () =
  check_float "1-D exact" 2.0
    (Median.weiszfeld [| [| 1.0 |]; [| 2.0 |]; [| 7.0 |] |]).(0)

(* Random configurations: Weiszfeld's output should (weakly) beat a grid
   of candidate points, including the input points and the centroid. *)
let weiszfeld_near_optimal () =
  let rng = Prng.Xoshiro.create 7L in
  for _ = 1 to 50 do
    let n = 3 + Prng.Xoshiro.next_below rng 8 in
    let ps =
      Array.init n (fun _ ->
          Vec.make2
            (Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0)
            (Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0))
    in
    let m = Median.weiszfeld ps in
    let best = Median.cost m ps in
    let candidates =
      Array.append ps
        (Array.init 100 (fun _ ->
             Vec.make2
               (Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0)
               (Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0)))
    in
    Array.iter
      (fun c ->
        if Median.cost c ps < best -. 1e-6 then
          Alcotest.failf "weiszfeld beaten: %g < %g at %s"
            (Median.cost c ps) best (Vec.to_string c))
      candidates
  done

(* --- Median: certified solver --------------------------------------- *)

let bits_equal u v =
  Array.length u = Array.length v
  && Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       u v

(* [solve]'s default relative gap tolerance. *)
let tol = 1e-12

let certified name ps (s : Median.solution) =
  let f = Median.cost s.Median.point ps in
  if not (s.Median.gap <= tol *. f) then
    Alcotest.failf "%s: gap %g above %g * cost %g" name s.Median.gap tol f

let solve_exact_vertex () =
  (* Three unit vectors 120 degrees apart cancel at the origin, so the
     Vardi–Zhang test holds there and the request itself comes back. *)
  let h = sqrt 3.0 /. 2.0 in
  let ps =
    [| Vec.make2 1.0 0.0; Vec.make2 (-0.5) h; Vec.make2 0.0 0.0;
       Vec.make2 (-0.5) (-.h) |]
  in
  let s = Median.solve ps in
  if not (bits_equal s.Median.point ps.(2)) then
    Alcotest.failf "vertex not returned exactly: %s" (Vec.to_string s.Median.point);
  Alcotest.(check int) "no iterations" 0 s.Median.iterations;
  check_float "zero gap" 0.0 s.Median.gap

let solve_duplicate_majority () =
  (* Three copies of one request outweigh the other two: the duplicated
     request is the median, found by the vertex test. *)
  let p = Vec.make2 1.0 1.0 in
  let ps =
    [| Vec.make2 5.0 5.0; Vec.copy p; Vec.make2 (-2.0) 0.0; Vec.copy p;
       Vec.copy p |]
  in
  let s = Median.solve ps in
  if not (bits_equal s.Median.point p) then
    Alcotest.failf "majority request not returned exactly: %s"
      (Vec.to_string s.Median.point);
  Alcotest.(check int) "no iterations" 0 s.Median.iterations;
  check_float "zero gap" 0.0 s.Median.gap

let solve_extreme_scales () =
  (* The solver is scale-free: 1e150 and 1e-150 copies of one instance
     give the scaled answer, certified to the same relative tolerance. *)
  let base =
    [| Vec.make2 0.3 1.7; Vec.make2 2.5 (-0.4); Vec.make2 (-1.2) 0.9;
       Vec.make2 0.8 3.1; Vec.make2 1.9 2.2 |]
  in
  let m = Median.weiszfeld base in
  List.iter
    (fun k ->
      let ps = Array.map (Vec.scale k) base in
      let s = Median.solve ps in
      certified (Printf.sprintf "scale %g" k) ps s;
      let back = Vec.scale (1.0 /. k) s.Median.point in
      if Vec.dist back m > 1e-12 then
        Alcotest.failf "scale %g: %s, expected %s" k (Vec.to_string back)
          (Vec.to_string m))
    [ 1e150; 1e-150 ]

let solve_three_dimensions () =
  (* An axis-aligned octahedron is symmetric about the origin; an extra
     request at (5, 5, 5) pulls the median off it.  No request and no
     random point may beat the certified answer. *)
  let ps =
    [| [| 1.0; 0.0; 0.0 |]; [| -1.0; 0.0; 0.0 |]; [| 0.0; 2.0; 0.0 |];
       [| 0.0; -2.0; 0.0 |]; [| 0.0; 0.0; 3.0 |]; [| 0.0; 0.0; -3.0 |];
       [| 5.0; 5.0; 5.0 |] |]
  in
  let s = Median.solve ps in
  certified "octahedron" ps s;
  let f = Median.cost s.Median.point ps in
  let rng = Prng.Xoshiro.create 3L in
  let candidates =
    Array.append ps
      (Array.init 200 (fun _ ->
           Array.init 3 (fun _ -> Prng.Dist.uniform rng ~lo:(-1.0) ~hi:1.0)))
  in
  Array.iter
    (fun c ->
      if Median.cost c ps < f then
        Alcotest.failf "beaten at %s: %.17g < %.17g" (Vec.to_string c)
          (Median.cost c ps) f)
    candidates

(* [solve]'s work bound: 3 * 64 passes after the start's evaluation. *)
let max_passes = 193

let bounded_work name (s : Median.solution) =
  if s.Median.iterations > 64 then
    Alcotest.failf "%s: %d iterations, cap 64" name s.Median.iterations;
  if s.Median.passes > max_passes then
    Alcotest.failf "%s: %d passes, bound %d" name s.Median.passes max_passes

let solve_max_request_round () =
  (* The largest round a Step frame can carry: the work is bounded by
     the pass budget, not by the request count. *)
  let rng = Prng.Xoshiro.create 65535L in
  let ps =
    Array.init 65535 (fun _ ->
        Vec.make2
          (Prng.Dist.uniform rng ~lo:(-100.0) ~hi:100.0)
          (Prng.Dist.uniform rng ~lo:(-100.0) ~hi:100.0))
  in
  let s = Median.solve ps in
  certified "65535 requests" ps s;
  bounded_work "65535 requests" s

let solve_max_request_near_vertex () =
  (* The near-vertex quadrilateral of the perf-equivalence suite at the
     largest round size: 16 383 requests jittered by 1e-9 around each
     corner, plus three in the unit square.  The optimum sits just off
     the heaviest corner, where Newton halves its step most. *)
  let quad =
    [| Vec.make2 (-0.7953723969687756) 0.2684881904296193;
       Vec.make2 1.6031695495654288 2.1115440526830001;
       Vec.make2 0.39846617187154143 0.25696931859187111;
       Vec.make2 1.3476005811418121 1.920611582098636 |]
  in
  let rng = Prng.Xoshiro.create 4L in
  let u lo hi = Prng.Dist.uniform rng ~lo ~hi in
  let ps =
    Array.init 65535 (fun i ->
        if i < 4 * 16383 then
          let q = quad.(i mod 4) in
          Vec.make2 (q.(0) +. u (-1e-9) 1e-9) (q.(1) +. u (-1e-9) 1e-9)
        else Vec.make2 (u 0.0 1.0) (u 0.0 1.0))
  in
  let s = Median.solve ps in
  certified "near-vertex 65535" ps s;
  bounded_work "near-vertex 65535" s

let solve_vertex_off_start () =
  (* Twelve copies of one request outweigh the other eight, so it is the
     median, but the centroid is nearest to another request: the vertex
     test fails there, and the request is found only after the iterate
     moves, then returned bitwise with gap 0. *)
  let p = Vec.make2 0.0 0.0 in
  let far =
    [| Vec.make2 100.0 (-10.0); Vec.make2 100.0 10.0; Vec.make2 110.0 0.0;
       Vec.make2 90.0 0.0; Vec.make2 100.0 (-5.0); Vec.make2 100.0 5.0;
       Vec.make2 105.0 2.0 |]
  in
  let ps =
    Array.concat
      [ Array.init 12 (fun _ -> Vec.copy p); far; [| Vec.make2 35.0 0.5 |] ]
  in
  let s = Median.solve ps in
  if not (bits_equal s.Median.point p) then
    Alcotest.failf "heavy request not returned exactly: %s"
      (Vec.to_string s.Median.point);
  if s.Median.iterations = 0 then
    Alcotest.fail "vertex found at the start: the case no longer moves";
  check_float "zero gap" 0.0 s.Median.gap;
  bounded_work "vertex off start" s

(* --- Median: center ------------------------------------------------ *)

let center_one_request () =
  let server = Vec.zero 2 in
  Alcotest.check vec "single request" [| 4.0; 2.0 |]
    (Median.center ~server [| Vec.make2 4.0 2.0 |])

let center_two_requests_projection () =
  (* Whole segment optimal; pick the projection of the server. *)
  let server = Vec.make2 2.0 5.0 in
  let c =
    Median.center ~server [| Vec.make2 0.0 0.0; Vec.make2 4.0 0.0 |]
  in
  Alcotest.check vec "projection onto segment" [| 2.0; 0.0 |] c

let center_two_requests_clamped () =
  let server = Vec.make2 10.0 3.0 in
  let c =
    Median.center ~server [| Vec.make2 0.0 0.0; Vec.make2 4.0 0.0 |]
  in
  Alcotest.check vec "clamped to endpoint" [| 4.0; 0.0 |] c

let center_empty () =
  Alcotest.check_raises "no requests"
    (Invalid_argument "Median.center: no requests") (fun () ->
      ignore (Median.center ~server:(Vec.zero 2) [||]))

let mean_center_is_centroid () =
  let server = Vec.zero 2 in
  let reqs = [| Vec.make2 0.0 0.0; Vec.make2 4.0 0.0; Vec.make2 2.0 3.0 |] in
  Alcotest.check vec "centroid" [| 2.0; 1.0 |]
    (Median.mean_center ~server reqs)

(* --- QCheck -------------------------------------------------------- *)

let point2 =
  QCheck.map
    (fun (x, y) -> Vec.make2 x y)
    QCheck.(pair (float_range (-100.) 100.) (float_range (-100.) 100.))

let qcheck_triangle_inequality =
  QCheck.Test.make ~count:200 ~name:"triangle inequality"
    QCheck.(triple point2 point2 point2)
    (fun (a, b, c) -> Vec.dist a c <= Vec.dist a b +. Vec.dist b c +. 1e-9)

let qcheck_clamp_step_respects_limit =
  QCheck.Test.make ~count:200 ~name:"clamp_step within limit"
    QCheck.(triple point2 point2 (float_range 0. 10.))
    (fun (from, target, limit) ->
      Vec.dist from (Vec.clamp_step ~from limit target) <= limit +. 1e-9)

let qcheck_median_beats_centroid =
  QCheck.Test.make ~count:100 ~name:"weiszfeld cost <= centroid cost"
    QCheck.(list_of_size (QCheck.Gen.int_range 3 12) point2)
    (fun pts ->
      let ps = Array.of_list pts in
      let m = Median.weiszfeld ps in
      Median.cost m ps <= Median.cost (Vec.centroid ps) ps +. 1e-6)

let qcheck_move_towards_distance =
  QCheck.Test.make ~count:200 ~name:"move_towards moves exactly min(d, gap)"
    QCheck.(triple point2 point2 (float_range 0. 20.))
    (fun (p, target, d) ->
      let gap = Vec.dist p target in
      let moved = Vec.move_towards p target d in
      Float.abs (Vec.dist p moved -. Float.min d gap) <= 1e-6)

let () =
  Alcotest.run "geometry"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick vec_basics;
          Alcotest.test_case "dim mismatch" `Quick vec_dim_mismatch;
          Alcotest.test_case "zero invalid" `Quick vec_zero_invalid;
          Alcotest.test_case "norm overflow safe" `Quick vec_norm_overflow_safe;
          Alcotest.test_case "normalize zero" `Quick vec_norm_empty_direction;
          Alcotest.test_case "normalize" `Quick vec_normalize;
          Alcotest.test_case "lerp" `Quick vec_lerp;
          Alcotest.test_case "move_towards" `Quick vec_move_towards;
          Alcotest.test_case "move_towards self" `Quick vec_move_towards_self;
          Alcotest.test_case "move_towards non-finite" `Quick
            vec_move_towards_non_finite;
          Alcotest.test_case "clamp_step" `Quick vec_clamp_step;
          Alcotest.test_case "centroid" `Quick vec_centroid;
          Alcotest.test_case "pp" `Quick vec_pp;
        ] );
      ( "median-1d",
        [
          Alcotest.test_case "odd" `Quick median_1d_odd;
          Alcotest.test_case "even tie-break" `Quick median_1d_even_tie_break;
          Alcotest.test_case "empty" `Quick median_1d_empty;
          Alcotest.test_case "optimal" `Quick median_1d_optimal;
        ] );
      ( "weiszfeld",
        [
          Alcotest.test_case "single" `Quick weiszfeld_single;
          Alcotest.test_case "triangle" `Quick weiszfeld_triangle;
          Alcotest.test_case "majority anchor" `Quick weiszfeld_majority_anchor;
          Alcotest.test_case "anchor interior" `Quick weiszfeld_anchor_interior;
          Alcotest.test_case "collinear even" `Quick weiszfeld_collinear_even;
          Alcotest.test_case "mixed dims" `Quick weiszfeld_mixed_dims;
          Alcotest.test_case "1-D delegates" `Quick weiszfeld_1d_delegates;
          Alcotest.test_case "near optimal" `Slow weiszfeld_near_optimal;
        ] );
      ( "certified",
        [
          Alcotest.test_case "exact vertex" `Quick solve_exact_vertex;
          Alcotest.test_case "duplicate majority" `Quick solve_duplicate_majority;
          Alcotest.test_case "1e150 and 1e-150" `Quick solve_extreme_scales;
          Alcotest.test_case "d = 3" `Quick solve_three_dimensions;
          Alcotest.test_case "65535 requests" `Quick solve_max_request_round;
          Alcotest.test_case "65535 requests, near vertex" `Quick
            solve_max_request_near_vertex;
          Alcotest.test_case "vertex away from the start" `Quick
            solve_vertex_off_start;
        ] );
      ( "center",
        [
          Alcotest.test_case "one request" `Quick center_one_request;
          Alcotest.test_case "two: projection" `Quick center_two_requests_projection;
          Alcotest.test_case "two: clamped" `Quick center_two_requests_clamped;
          Alcotest.test_case "empty" `Quick center_empty;
          Alcotest.test_case "mean center" `Quick mean_center_is_centroid;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_triangle_inequality;
            qcheck_clamp_step_respects_limit;
            qcheck_median_beats_centroid;
            qcheck_move_towards_distance;
          ] );
    ]
