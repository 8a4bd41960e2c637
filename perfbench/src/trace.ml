let names : string array ref = ref [||]

let register name =
  match Array.find_index (String.equal name) !names with
  | Some i -> i
  | None ->
    names := Array.append !names [| name |];
    Array.length !names - 1

let name_of i = !names.(i)

let self_times ~parent ~start ~stop n =
  let self = Array.init n (fun i -> stop.(i) -. start.(i)) in
  let kids = Array.make n [] in
  for i = n - 1 downto 0 do
    let p = parent.(i) in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  Array.iteri
    (fun p children ->
      if children <> [] then begin
        (* The union of the children's intervals, clipped to the
           parent's: overlapping children are not counted twice. *)
        let spans =
          List.sort compare
            (List.filter_map
               (fun c ->
                 let a = Float.max start.(c) start.(p)
                 and b = Float.min stop.(c) stop.(p) in
                 if b > a then Some (a, b) else None)
               children)
        in
        match spans with
        | [] -> ()
        | (a0, b0) :: rest ->
          let covered, lo, hi =
            List.fold_left
              (fun (acc, lo, hi) (a, b) ->
                if a > hi then (acc +. (hi -. lo), a, b)
                else (acc, lo, Float.max hi b))
              (0.0, a0, b0) rest
          in
          self.(p) <- self.(p) -. (covered +. (hi -. lo))
      end)
    kids;
  self

type kept = {
  k_name : string;
  k_start : float;
  k_stop : float;
  k_parent : int;
  k_owner : int;
}

type t = {
  cap : int;
  mutable n : int;
  name : int array;
  start : float array;
  stop : float array;
  parent : int array;
  owner : int array;
  mutable open_ : int list;
  mutable count : int array;
  mutable total : float array;
  mutable self : float array;
  mutable kept_rev : kept list;
  mutable kept_n : int;
  mutable dropped : int;
}

let keep = 100_000

let create ?(capacity = 4096) () =
  let k = Array.length !names in
  {
    cap = capacity;
    n = 0;
    name = Array.make capacity 0;
    start = Array.make capacity 0.0;
    stop = Array.make capacity 0.0;
    parent = Array.make capacity (-1);
    owner = Array.make capacity 0;
    open_ = [];
    count = Array.make k 0;
    total = Array.make k 0.0;
    self = Array.make k 0.0;
    kept_rev = [];
    kept_n = 0;
    dropped = 0;
  }

let grow_aggregates t =
  let k = Array.length !names in
  let extend a zero =
    if Array.length a >= k then a
    else Array.append a (Array.make (k - Array.length a) zero)
  in
  t.count <- extend t.count 0;
  t.total <- extend t.total 0.0;
  t.self <- extend t.self 0.0

(* Fold the buffered spans into the per-name aggregates.  Only called
   with no span open, so every parent index points inside the buffer. *)
let fold t =
  grow_aggregates t;
  let self = self_times ~parent:t.parent ~start:t.start ~stop:t.stop t.n in
  for i = 0 to t.n - 1 do
    let k = t.name.(i) in
    t.count.(k) <- t.count.(k) + 1;
    t.total.(k) <- t.total.(k) +. (t.stop.(i) -. t.start.(i));
    t.self.(k) <- t.self.(k) +. self.(i)
  done;
  if t.kept_n + t.n <= keep then begin
    let base = t.kept_n in
    for i = 0 to t.n - 1 do
      t.kept_rev <-
        {
          k_name = name_of t.name.(i);
          k_start = t.start.(i);
          k_stop = t.stop.(i);
          k_parent = (if t.parent.(i) < 0 then -1 else base + t.parent.(i));
          k_owner = t.owner.(i);
        }
        :: t.kept_rev
    done;
    t.kept_n <- t.kept_n + t.n
  end
  else t.dropped <- t.dropped + t.n;
  t.n <- 0

let enter t k ~owner =
  if t.n = t.cap then failwith "Trace: span buffer full inside an open span";
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- k;
  t.parent.(i) <- (match t.open_ with p :: _ -> p | [] -> -1);
  t.owner.(i) <- owner;
  t.open_ <- i :: t.open_;
  t.start.(i) <- Clock.now ();
  i

let leave t i =
  t.stop.(i) <- Clock.now ();
  (match t.open_ with
   | j :: rest when j = i -> t.open_ <- rest
   | _ -> failwith "Trace.leave: spans must close innermost first");
  if t.open_ = [] && t.n >= t.cap - 256 then fold t

let span t k ~owner f =
  match t with
  | None -> f ()
  | Some t ->
    let i = enter t k ~owner in
    (match f () with
     | v ->
       leave t i;
       v
     | exception e ->
       leave t i;
       raise e)

let finish t = if t.open_ = [] && t.n > 0 then fold t

let absorb t other =
  finish other;
  grow_aggregates t;
  grow_aggregates other;
  Array.iteri
    (fun k c ->
      t.count.(k) <- t.count.(k) + c;
      t.total.(k) <- t.total.(k) +. other.total.(k);
      t.self.(k) <- t.self.(k) +. other.self.(k))
    other.count;
  if t.kept_n + other.kept_n <= keep then begin
    let base = t.kept_n in
    List.iter
      (fun s ->
        t.kept_rev <-
          { s with k_parent = (if s.k_parent < 0 then -1 else base + s.k_parent) }
          :: t.kept_rev)
      (List.rev other.kept_rev);
    t.kept_n <- t.kept_n + other.kept_n
  end
  else t.dropped <- t.dropped + other.kept_n;
  t.dropped <- t.dropped + other.dropped

let get a k = if k < Array.length a then a.(k) else 0
let getf a k = if k < Array.length a then a.(k) else 0.0

let count t k = finish t; get t.count k
let total t k = finish t; getf t.total k
let self t k = finish t; getf t.self k

let mean t k =
  let c = count t k in
  if c = 0 then 0.0 else total t k /. float_of_int c

let write t path =
  finish t;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let kept = List.rev t.kept_rev in
      let t0 = match kept with s :: _ -> s.k_start | [] -> 0.0 in
      Printf.fprintf oc "# spans kept %d, not kept %d; times in us from the first span\n"
        t.kept_n t.dropped;
      output_string oc "index\tname\tstart_us\tstop_us\tparent\towner\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc "%d\t%s\t%.3f\t%.3f\t%d\t%d\n" i s.k_name
            ((s.k_start -. t0) *. 1e6) ((s.k_stop -. t0) *. 1e6) s.k_parent s.k_owner)
        kept;
      output_string oc "# name\tcount\ttotal_us\tself_us\n";
      Array.iteri
        (fun k c ->
          if c > 0 then
            Printf.fprintf oc "# %s\t%d\t%.3f\t%.3f\n" (name_of k) c
              (t.total.(k) *. 1e6) (t.self.(k) *. 1e6))
        t.count)
