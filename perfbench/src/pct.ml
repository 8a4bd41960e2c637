type t = Quantile of float | Max of { value : float; n : int }

let rank ~n q = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))

let summarize q xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pct.summarize: no samples";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let k = rank ~n q in
  if n - k >= 10 then Quantile sorted.(k - 1)
  else Max { value = sorted.(n - 1); n }

let value = function Quantile v -> v | Max { value; _ } -> value

let describe = function
  | Quantile _ -> "percentile"
  | Max { n; _ } -> Printf.sprintf "max of %d samples" n

let median xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pct.median: no samples"
  else if n mod 2 = 1 then sorted.(n / 2)
  else 0.5 *. (sorted.((n / 2) - 1) +. sorted.(n / 2))

(* Python's [statistics.quantiles xs ~n:4] (the default "exclusive"
   method), in the same integer arithmetic, so a spread computed here
   equals the one a Python reader of the result files computes. *)
let quartiles xs =
  let d = Array.copy xs in
  Array.sort Float.compare d;
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Pct.quartiles: no samples";
  if ld = 1 then (d.(0), d.(0), d.(0))
  else begin
    let m = ld + 1 in
    let at i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (at 1, at 2, at 3)
  end

module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add s x =
    if s.len = Array.length s.data then begin
      let bigger = Array.make (2 * s.len) 0.0 in
      Array.blit s.data 0 bigger 0 s.len;
      s.data <- bigger
    end;
    s.data.(s.len) <- x;
    s.len <- s.len + 1

  let length s = s.len
  let to_array s = Array.sub s.data 0 s.len
  let clear s = s.len <- 0
end
