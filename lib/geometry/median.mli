(** Geometric medians — the center point of the Move-to-Center algorithm.

    MtC needs, each round, the point [c] minimizing
    [sum_i d(c, v_i)] over the round's request positions [v_i]
    (the Fermat–Weber point / geometric median), with ties broken
    towards the server position.

    In 1-D the minimizers form the interval between the lower and upper
    medians, and the tie-break picks the interval point closest to the
    server.  In higher dimension the median is unique unless the points
    are collinear; {!solve} computes it to a certified duality gap with
    the Vardi–Zhang vertex test and a damped Newton iteration. *)

val cost : Vec.t -> Vec.t array -> float
(** [cost c points] is [sum_i dist c points.(i)] — the Fermat–Weber
    objective. *)

val median_1d : ?tie_break:float -> float array -> float
(** [median_1d ?tie_break xs] is a minimizer of [fun c -> sum |c - x_i|]
    over a non-empty array.  When the minimizer is an interval (even
    count), returns the interval point closest to [tie_break]
    (default [0.]). *)

type solution = {
  point : Vec.t;  (** The returned center. *)
  gap : float;
      (** A certified bound on [cost point points -. min_c cost c points]
          (a duality gap, >= 0): at most [1e-12 *. cost point points]
          unless the work bound or the rounding floor stopped the
          solver first. *)
  iterations : int;
      (** Moves of the iterate (Newton, Weiszfeld or vertex steps); 0
          when a closed form answered or the vertex test held at the
          request nearest the start. *)
  passes : int;
      (** Passes over the points made by the iterative solver (each
          evaluation at an iterate, line-search trial point, vertex test
          or start candidate); 0 for a closed form. *)
}

val solve : Vec.t array -> solution
(** [solve points] is the geometric median of a non-empty array of
    points of equal dimension, with its certificate.

    The 1-D, single-point and exactly collinear inputs are answered
    directly (the even-count collinear tie is broken toward the origin),
    and [gap] is their answer's certificate, computed as below.
    Otherwise (d >= 2, general position), starting from the centroid:

    - {b Vertex test.}  The Vardi–Zhang test [‖R_k‖ <= mult_k] ([R_k]
      is the sum of the unit vectors from the point [p_k] to the
      others, [mult_k] the number of points within [1e-13 *. spread]
      of [p_k]) proves [p_k] optimal, which is then returned as is.  It
      runs at the point nearest the iterate, at the start and whenever
      that point changes; when it fails, the iterate jumps to that
      point's Vardi–Zhang step if the objective is lower there.  This
      costs one pass over the points per test, whatever [n].
    - {b Damped Newton.}  Each iteration solves [H s = -g] with the
      Hessian [H = Σ (I - u_i u_iᵀ) / d_i] (a d×d Cholesky; [g = Σ u_i]
      is the gradient, [u_i] the unit vector from [p_i] to the iterate,
      [d_i] the distance) and halves [s] (up to 30 times) until the
      objective decreases.  When [H] is not positive definite, when the
      iterate sits on a point, or when no halving decreases the
      objective, it takes the Weiszfeld (Vardi–Zhang) step instead;
      when that fails too the rounding floor is reached and it stops.
    - {b Certificate.}  It stops once
      [gap = f - (f - ⟨g, y - c⟩) / (1 + ‖g‖ / n) <= 1e-12 *. f], where
      [f] is the objective at the iterate [y] and [c] the centroid:
      [(u_i - g / n) / (1 + ‖g‖ / n)] is feasible for the dual
      [max Σ ⟨w_i, p_i⟩ s.t. ‖w_i‖ <= 1, Σ w_i = 0], so [gap] bounds the
      error by weak duality.  (Points at the iterate, and in a second
      bound the nearest point, share one unit-ball vector instead; the
      smaller bound is reported — see docs/perf.md.)
    - {b Bounded work.}  At most 64 iterations, and at most
      [3 * 64] passes over the points after the start's evaluation
      (every trial point, evaluation and vertex test counts one): a
      search tries only as many halvings as that budget leaves.  So a
      round costs at most 193 passes, O(n) each — the old Weiszfeld
      loop's worst case was 200.

    Arithmetic is IEEE basic operations and [sqrt] only, so the bits do
    not depend on the platform's libm. *)

val weiszfeld :
  ?eps:float -> ?max_iter:int -> ?tie_break:Vec.t -> ?init:Vec.t ->
  Vec.t array -> Vec.t
(** [weiszfeld points] is [(solve points).point]; the certificate of
    the closed-form branches is not computed.  (The name is historical:
    the general case is {!solve}'s vertex test and damped Newton, with
    Weiszfeld's step as the fallback.)

    [eps] (default [1e-12]) is the relative gap tolerance and
    [max_iter] (default 64) the iteration cap; the pass budget is
    [3 * max_iter] after the start.  [init] is one more candidate start:
    the solver starts from it when its objective is below the
    centroid's (two more passes), so it can change the returned bits
    within the certified tolerance, never the point being approached;
    [init] equal to the centroid is bit-identical to passing nothing.
    Raises [Invalid_argument] if [init]'s dimension does not match the
    points.

    [tie_break] (default the origin) only matters for 1-D inputs and
    for exactly collinear inputs with an even count, where the
    minimizer set can be a segment; the returned point is then the
    segment point closest to [tie_break]. *)

val center : ?init:Vec.t -> server:Vec.t -> Vec.t array -> Vec.t
(** [center ~server requests] is the paper's center point [c]: the
    geometric median of [requests], ties broken toward [server].
    Requires a non-empty request array whose dimension matches
    [server].  Special cases: one request returns that request; two
    requests return the segment point closest to [server] (the whole
    segment is optimal).  [init] is one more candidate start for
    the underlying {!solve} (see there); it never changes which point
    the iteration targets. *)

val mean_center : server:Vec.t -> Vec.t array -> Vec.t
(** [mean_center ~server requests] is the centroid of the requests — a
    cheap 2-approximation of the median objective used by the ablation
    study (DESIGN.md §5).  [server] is ignored except for dimension
    checking; the argument shape matches {!center} so the two can be
    swapped. *)
