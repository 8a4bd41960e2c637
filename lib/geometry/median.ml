let cost c points =
  let acc = ref 0.0 in
  for i = 0 to Array.length points - 1 do
    acc := !acc +. Vec.dist c points.(i)
  done;
  !acc

let clamp lo hi v = Float.max lo (Float.min hi v)

let median_1d ?(tie_break = 0.0) xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Median.median_1d: empty array";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  if n mod 2 = 1 then sorted.(n / 2)
  else
    (* Every point of [lower, upper] is optimal; pick the one nearest to
       the tie-break position. *)
    let lower = sorted.((n / 2) - 1) and upper = sorted.(n / 2) in
    clamp lower upper tie_break

(* All points within [eps] of the line through [origin] with unit
   direction [dir]?  Two scratch buffers are reused across points; the
   arithmetic is the reference [sub]/[scale]/[norm] chain verbatim. *)
let collinear_along ~origin ~dir ~eps points =
  let d = Array.length origin in
  let diff = Array.make d 0.0 in
  let off = Array.make d 0.0 in
  Array.for_all
    (fun p ->
      Vec.sub_into diff p origin;
      let along = Vec.dot diff dir in
      for i = 0 to d - 1 do
        off.(i) <- diff.(i) -. (along *. dir.(i))
      done;
      Vec.norm off <= eps)
    points

(* Orthogonal projection of [p] onto the segment [a, b]. *)
let project_segment a b p =
  let len2 = Vec.dist2 b a in
  if len2 < 1e-300 then Vec.copy a
  else begin
    let dot_pa_ba = ref 0.0 in
    for i = 0 to Array.length a - 1 do
      dot_pa_ba := !dot_pa_ba +. ((p.(i) -. a.(i)) *. (b.(i) -. a.(i)))
    done;
    let s = clamp 0.0 1.0 (!dot_pa_ba /. len2) in
    Vec.lerp a b s
  end

(* Median of exactly collinear points: reduce to 1-D coordinates along
   the line, tie-break by the projected tie-break coordinate. *)
let along_line ~origin ~dir p =
  let acc = ref 0.0 in
  for i = 0 to Array.length origin - 1 do
    acc := !acc +. ((p.(i) -. origin.(i)) *. dir.(i))
  done;
  !acc

let collinear_median ~origin ~dir ~tie_break points =
  let coords = Array.map (along_line ~origin ~dir) points in
  let tb = along_line ~origin ~dir tie_break in
  let c = median_1d ~tie_break:tb coords in
  Vec.add origin (Vec.scale c dir)

type solution = { point : Vec.t; gap : float; iterations : int; passes : int }

(* Step halvings tried per Newton step before falling back to the
   Weiszfeld step. *)
let max_halvings = 30

(* A Cholesky pivot of the Hessian scaled by [1 / sum 1/d_i] (trace
   [d - 1], eigenvalues in [0, 1]) at or below this counts as not
   positive definite. *)
let pivot_floor = 1e-14

(* [dist_into diff y p] stores [y - p] in [diff] and returns its length
   with [Vec.dist]'s arithmetic (scale by the largest coordinate, sum of
   squares, one [sqrt]): bit-identical to [Vec.dist y p]. *)
let dist_into diff y p =
  let d = Array.length y in
  let m = ref 0.0 in
  for i = 0 to d - 1 do
    let c = y.(i) -. p.(i) in
    diff.(i) <- c;
    m := Float.max !m (Float.abs c)
  done;
  let m = !m in
  if Float.equal m 0.0 then 0.0
  else if Float.equal m infinity then infinity
  else begin
    let acc = ref 0.0 in
    for i = 0 to d - 1 do
      let c = diff.(i) /. m in
      acc := !acc +. (c *. c)
    done;
    m *. sqrt !acc
  end

(* What one pass over the points at an iterate [y] leaves behind.
   Points within the anchor radius of [y] are anchored; every other
   point [p_i] contributes its unit vector [u_i = (y - p_i) / d_i].
   All-float record, so the sums are stored unboxed. *)
type sums = {
  mutable f : float;  (* the objective at [y] *)
  mutable w : float;  (* sum of 1/d_i over the unanchored points *)
  mutable slack : float;  (* the anchored points' share of the gap *)
  mutable alt_slack : float;  (* [slack] with the nearest point anchored *)
}

type scratch = {
  dists : float array;  (* d_i *)
  diff : float array;  (* y - p_i, then u_i *)
  grad : float array;  (* the subgradient G (see [eval]) *)
  hess : float array;  (* sum (I - u_i u_i^T) / d_i, lower triangle, row-major *)
  alt : float array;  (* [grad] with the nearest point anchored *)
  anchor_off : float array;  (* sum of y - p_i over the anchored points *)
  sums : sums;
  mutable mult : int;  (* number of anchored points *)
  mutable vertex : bool;  (* y is anchored and passes the Vardi–Zhang test *)
  mutable nearest : int;  (* index of the point nearest [y] *)
}

let scratch ~n d =
  {
    dists = Array.make n 0.0;
    diff = Array.make d 0.0;
    grad = Array.make d 0.0;
    hess = Array.make (d * d) 0.0;
    alt = Array.make d 0.0;
    anchor_off = Array.make d 0.0;
    sums = { f = 0.0; w = 0.0; slack = 0.0; alt_slack = 0.0 };
    mult = 0;
    vertex = false;
    nearest = 0;
  }

(* Fold [m] anchored points into the subgradient.  Each takes the same
   [v = -s / max(m, |s|)], where [s] is the sum of the other points'
   unit vectors; [dst] gets [s + m v = s (1 - m / max(m, |s|))], and the
   result is the anchored points' share of the gap,
   [sum (d_i - <v, y - p_i>) = anchor_d + <s, anchor_off> / max(m, |s|)]
   with [anchor_off = sum (y - p_i)].  [dst] may alias [s]. *)
let anchor_fold ~m ~anchor_d ~anchor_off s dst =
  let r = Float.max m (Vec.norm s) in
  let slack = anchor_d +. (Vec.dot s anchor_off /. r) in
  let keep = 1.0 -. (m /. r) in
  for i = 0 to Array.length s - 1 do
    dst.(i) <- keep *. s.(i)
  done;
  slack

(* One pass over [points] at [y].  [grad] ends as the subgradient
   [G = S + mult * v] of [anchor_fold], where [S] is the sum of the
   unanchored [u_i].  So [G = 0] exactly when the Vardi–Zhang test
   [|S| <= mult] holds, and otherwise [-G / w] is the Vardi–Zhang (or,
   unanchored, the Weiszfeld) step.  With no point anchored, [alt] and
   [alt_slack] are the same fold with the nearest point anchored: near
   a request the unit vector toward it is only as precise as [y]'s last
   bit relative to [d_i], and the fold certifies the gap there
   instead. *)
let eval st ~anchor_eps y points =
  let d = Array.length y in
  Array.fill st.grad 0 d 0.0;
  Array.fill st.hess 0 (d * d) 0.0;
  Array.fill st.anchor_off 0 d 0.0;
  let f = ref 0.0 and w = ref 0.0 and anchor_d = ref 0.0 in
  let mult = ref 0 and nearest = ref 0 and nearest_d = ref infinity in
  for j = 0 to Array.length points - 1 do
    let dj = dist_into st.diff y points.(j) in
    st.dists.(j) <- dj;
    f := !f +. dj;
    if dj < !nearest_d then begin
      nearest_d := dj;
      nearest := j
    end;
    if dj <= anchor_eps then begin
      incr mult;
      anchor_d := !anchor_d +. dj;
      for i = 0 to d - 1 do
        st.anchor_off.(i) <- st.anchor_off.(i) +. st.diff.(i)
      done
    end
    else begin
      let inv = 1.0 /. dj in
      w := !w +. inv;
      for i = 0 to d - 1 do
        let ui = st.diff.(i) *. inv in
        st.diff.(i) <- ui;
        st.grad.(i) <- st.grad.(i) +. ui
      done;
      for i = 0 to d - 1 do
        let ui = st.diff.(i) in
        let row = i * d in
        for k = 0 to i - 1 do
          st.hess.(row + k) <- st.hess.(row + k) -. (ui *. st.diff.(k) *. inv)
        done;
        st.hess.(row + i) <- st.hess.(row + i) +. ((1.0 -. (ui *. ui)) *. inv)
      done
    end
  done;
  st.sums.f <- !f;
  st.sums.w <- !w;
  st.mult <- !mult;
  st.nearest <- !nearest;
  if !mult = 0 then begin
    st.sums.slack <- 0.0;
    st.vertex <- false;
    let q = points.(!nearest) and dq = !nearest_d in
    for i = 0 to d - 1 do
      let off = y.(i) -. q.(i) in
      st.anchor_off.(i) <- off;
      st.alt.(i) <- st.grad.(i) -. (off /. dq)
    done;
    st.sums.alt_slack <-
      anchor_fold ~m:1.0 ~anchor_d:dq ~anchor_off:st.anchor_off st.alt st.alt
  end
  else begin
    let m = float_of_int !mult in
    st.vertex <- Vec.norm st.grad <= m;
    st.sums.slack <-
      anchor_fold ~m ~anchor_d:!anchor_d ~anchor_off:st.anchor_off st.grad
        st.grad;
    Array.blit st.grad 0 st.alt 0 d;
    st.sums.alt_slack <- st.sums.slack
  end

(* The certified bound on [cost y - min cost] after [eval st y].  The
   dual of min sum |x - p_i| is max sum <w_i, p_i> over |w_i| <= 1,
   sum w_i = 0; with [a = |G| / n] and [c] the centroid,
   [w_i = -(u_i - G/n) / (1 + a)] is feasible and its value gives
   [gap = (f a + <G, y - c> + slack) / (1 + a)]. *)
let gap_with ~f ~centroid ~n g slack y =
  let a = Vec.norm g /. float_of_int n in
  let lin = ref 0.0 in
  for i = 0 to Array.length y - 1 do
    lin := !lin +. (g.(i) *. (y.(i) -. centroid.(i)))
  done;
  Float.max 0.0 (((f *. a) +. !lin +. slack) /. (1.0 +. a))

(* Any feasible dual point bounds the gap: take the better of [grad]'s
   and [alt]'s. *)
let gap st ~centroid y n =
  let f = st.sums.f in
  Float.min
    (gap_with ~f ~centroid ~n st.grad st.sums.slack y)
    (gap_with ~f ~centroid ~n st.alt st.sums.alt_slack y)

(* The Weiszfeld / Vardi–Zhang step [-G / w]. *)
let weiszfeld_step st step =
  for i = 0 to Array.length step - 1 do
    step.(i) <- -.st.grad.(i) /. st.sums.w
  done

(* The Newton step: solve [(H / w) s = -G / w] by Cholesky, in place in
   [hess].  False when a pivot is at or below [pivot_floor]. *)
let newton_step st step =
  let d = Array.length step in
  let h = st.hess and w = st.sums.w in
  let ok = ref true in
  let j = ref 0 in
  while !ok && !j < d do
    let jj = !j in
    let diag = ref (h.((jj * d) + jj) /. w) in
    for k = 0 to jj - 1 do
      diag := !diag -. (h.((jj * d) + k) *. h.((jj * d) + k))
    done;
    if !diag <= pivot_floor then ok := false
    else begin
      let l = sqrt !diag in
      h.((jj * d) + jj) <- l;
      for i = jj + 1 to d - 1 do
        let s = ref (h.((i * d) + jj) /. w) in
        for k = 0 to jj - 1 do
          s := !s -. (h.((i * d) + k) *. h.((jj * d) + k))
        done;
        h.((i * d) + jj) <- !s /. l
      done
    end;
    incr j
  done;
  if !ok then begin
    for i = 0 to d - 1 do
      let s = ref (-.st.grad.(i) /. w) in
      for k = 0 to i - 1 do
        s := !s -. (h.((i * d) + k) *. step.(k))
      done;
      step.(i) <- !s /. h.((i * d) + i)
    done;
    for i = d - 1 downto 0 do
      let s = ref step.(i) in
      for k = i + 1 to d - 1 do
        s := !s -. (h.((k * d) + i) *. step.(k))
      done;
      step.(i) <- !s /. h.((i * d) + i)
    done
  end;
  !ok

(* Try [y + t step] for t = 1, 1/2, ... (at most [halvings] halvings)
   and move [y] to the first trial point where the objective decreases,
   after [eval st y].  Each trial is one pass over the points, counted
   in [passes].  The change is summed term by term as
   [d_i' - d_i = <s, (a_i + b_i) / (d_i' + d_i)>] with [s = trial - y],
   [a_i = trial - p_i] and [b_i = y - p_i]: no cancellation, so its sign
   stays right long after two rounded objectives stop telling the
   iterates apart, and Newton keeps converging down to a gap near the
   rounding floor. *)
let line_search st ~passes ~halvings y step trial points =
  let d = Array.length y in
  let t = ref 1.0 and k = ref 0 and moved = ref false in
  while (not !moved) && !k <= halvings do
    incr passes;
    for i = 0 to d - 1 do
      trial.(i) <- y.(i) +. (!t *. step.(i))
    done;
    let change = ref 0.0 in
    for j = 0 to Array.length points - 1 do
      let p = points.(j) in
      let den = dist_into st.diff trial p +. st.dists.(j) in
      if den > 0.0 then begin
        let inv = 1.0 /. den in
        for i = 0 to d - 1 do
          change :=
            !change
            +. ((trial.(i) -. y.(i)) *. ((st.diff.(i) +. (y.(i) -. p.(i))) *. inv))
        done
      end
    done;
    if !change < 0.0 then begin
      Array.blit trial 0 y 0 d;
      moved := true
    end;
    t := !t *. 0.5;
    incr k
  done;
  !moved

(* The certified solver for points in general position (d >= 2, not
   collinear, spread > 0). *)
let certified ~eps ~max_iter ~spread ?init points =
  let n = Array.length points in
  let d = Vec.dim points.(0) in
  let anchor_eps = 1e-13 *. spread in
  let centroid = Vec.centroid points in
  let st = scratch ~n d and sa = scratch ~n d in
  let passes = ref 0 in
  let eval_at s y =
    incr passes;
    eval s ~anchor_eps y points
  in
  (* The start is the lower-objective of the centroid and [init]; ties
     keep the centroid, so [init] equal to it changes nothing. *)
  let y =
    match init with
    | None -> Vec.copy centroid
    | Some v ->
      passes := 2;
      Vec.copy (if cost v points < cost centroid points then v else centroid)
  in
  eval_at st y;
  (* After the start, at most [3 * max_iter] passes: a trial point
     costs one and a move one more (the evaluation there), so a search
     tries at most as many halvings as that leaves. *)
  let budget = !passes + (3 * max_iter) in
  let step = Array.make d 0.0 and trial = Array.make d 0.0 in
  let search ~halvings =
    let halvings = min halvings (budget - !passes - 2) in
    halvings >= 0 && line_search st ~passes ~halvings y step trial points
  in
  let finish s y iterations =
    { point = y; gap = gap s ~centroid y n; iterations; passes = !passes }
  in
  let tested = ref (-1) in
  (* Each move of [y] counts as an iteration and is followed by
     [eval_at st y]. *)
  let rec iterate iterations =
    if st.nearest <> !tested && !passes < budget then begin
      (* The vertex test at the point nearest the iterate, once per
         point.  If it fails, that point's Vardi–Zhang step is a
         candidate: jump there if it is lower. *)
      tested := st.nearest;
      let q = points.(st.nearest) in
      eval_at sa q;
      if sa.vertex then finish sa (Vec.copy q) iterations
      else begin
        weiszfeld_step sa step;
        for i = 0 to d - 1 do
          step.(i) <- q.(i) +. step.(i) -. y.(i)
        done;
        if iterations < max_iter && search ~halvings:0 then moved iterations
        else descend iterations
      end
    end
    else descend iterations
  and descend iterations =
    if gap st ~centroid y n > eps *. st.sums.f
       && iterations < max_iter
       && ((st.mult = 0
            && newton_step st step
            && search ~halvings:max_halvings)
           || (weiszfeld_step st step;
               search ~halvings:0))
    then moved iterations
    else finish st y iterations
  and moved iterations =
    eval_at st y;
    iterate (iterations + 1)
  in
  iterate 0

(* The dispatch shared by [solve] and [weiszfeld]: [`Direct p] for the
   closed-form branches (no certificate computed), [`Solved s] for the
   certified solver. *)
let dispatch ~eps ~max_iter ?tie_break ?init points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Median.weiszfeld: empty array";
  let d = Vec.dim points.(0) in
  Array.iter
    (fun p ->
      if Vec.dim p <> d then
        invalid_arg "Median.weiszfeld: mixed dimensions")
    points;
  (match init with
   | Some v when Vec.dim v <> d ->
     invalid_arg "Median.weiszfeld: init dimension mismatch"
   | Some _ | None -> ());
  let tie_break = match tie_break with Some t -> t | None -> Vec.zero d in
  if n = 1 then `Direct (Vec.copy points.(0))
  else if d = 1 then
    `Direct
      [| median_1d ~tie_break:tie_break.(0) (Array.map (fun p -> p.(0)) points) |]
  else begin
    (* Scale for the degeneracy tests relative to the point spread. *)
    let origin = points.(0) in
    let spread =
      Array.fold_left (fun acc p -> Float.max acc (Vec.dist origin p)) 0.0 points
    in
    if spread < 1e-300 then `Direct (Vec.copy origin)
    else begin
      let far =
        (* A point realizing (almost) the spread; must be distinct from
           origin since spread > 0. *)
        let best = ref points.(0) and best_d = ref 0.0 in
        Array.iter
          (fun p ->
            let dd = Vec.dist origin p in
            if dd > !best_d then begin best := p; best_d := dd end)
          points;
        !best
      in
      match Vec.normalize (Vec.sub far origin) with
      | None -> `Direct (Vec.copy origin)
      | Some dir ->
        if collinear_along ~origin ~dir ~eps:(1e-12 *. spread) points then
          `Direct
            (if n = 2 then project_segment points.(0) points.(1) tie_break
             else collinear_median ~origin ~dir ~tie_break points)
        else `Solved (certified ~eps ~max_iter ~spread ?init points)
    end
  end

(* The defaults: relative gap tolerance and iteration cap. *)
let default_eps = 1e-12
let default_max_iter = 64

let solve points =
  match dispatch ~eps:default_eps ~max_iter:default_max_iter points with
  | `Solved s -> s
  | `Direct p ->
    let st = scratch ~n:(Array.length points) (Vec.dim p) in
    let spread =
      Array.fold_left (fun acc q -> Float.max acc (Vec.dist p q)) 0.0 points
    in
    (* The collinear branch treats points within [1e-12] of the spread
       from [points.(0)] (at most twice [spread]) of the line as on it,
       so its answer may sit that far off the median point: anchor
       within that radius. *)
    eval st ~anchor_eps:(2e-12 *. spread) p points;
    { point = p; gap = gap st ~centroid:(Vec.centroid points) p
                         (Array.length points);
      iterations = 0; passes = 0 }

let weiszfeld ?(eps = default_eps) ?(max_iter = default_max_iter) ?tie_break
    ?init points =
  match dispatch ~eps ~max_iter ?tie_break ?init points with
  | `Solved s -> s.point
  | `Direct p -> p

let center ?init ~server requests =
  let n = Array.length requests in
  if n = 0 then invalid_arg "Median.center: no requests";
  Array.iter
    (fun p ->
      if Vec.dim p <> Vec.dim server then
        invalid_arg "Median.center: request dimension mismatch")
    requests;
  match n with
  | 1 -> Vec.copy requests.(0)
  | 2 -> project_segment requests.(0) requests.(1) server
  | _ -> weiszfeld ~tie_break:server ?init requests

let mean_center ~server requests =
  if Array.length requests = 0 then invalid_arg "Median.mean_center: no requests";
  Array.iter
    (fun p ->
      if Vec.dim p <> Vec.dim server then
        invalid_arg "Median.mean_center: request dimension mismatch")
    requests;
  Vec.centroid requests
