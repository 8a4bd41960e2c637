type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Every digit of a measured value: "%.17g" round-trips an IEEE double.
   JSON has no infinities; a non-finite value prints as the largest
   finite double of its sign (only a failed run produces one). *)
let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else if Float.is_nan x then "null"
  else if x > 0.0 then "1.7976931348623157e308"
  else "-1.7976931348623157e308"

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x -> number x
  | Str s -> escape s
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kv ->
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) kv)
    ^ "}"

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Bad (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    then (incr pos; ws ())
  in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "bad literal"
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        if !pos + 1 >= n then fail "bad escape";
        (match s.[!pos + 1] with
         | 'n' -> Buffer.add_char b '\n'; pos := !pos + 2
         | 't' -> Buffer.add_char b '\t'; pos := !pos + 2
         | 'u' ->
           if !pos + 6 > n then fail "bad escape";
           (match int_of_string_opt ("0x" ^ String.sub s (!pos + 2) 4) with
            | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
            | _ -> Buffer.add_char b '?');
           pos := !pos + 6
         | c -> Buffer.add_char b c; pos := !pos + 2);
        go ()
      | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      ws ();
      if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
      else begin
        let rec fields acc =
          ws ();
          let k = string_ () in
          ws ();
          expect ':';
          let v = value () in
          ws ();
          if !pos < n && s.[!pos] = ',' then (incr pos; fields ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        fields []
      end
    | '[' ->
      incr pos;
      ws ();
      if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
      else begin
        let rec items acc =
          let v = value () in
          ws ();
          if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
      end
    | '"' -> Str (string_ ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do incr pos done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
       | Some x when !pos > start -> Num x
       | _ -> fail "bad value")
  in
  match
    let v = value () in
    ws ();
    if !pos <> n then fail "trailing bytes";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let member k = function Obj kv -> List.assoc_opt k kv | _ -> None
let to_num = function Num x -> Some x | _ -> None
let to_str = function Str s -> Some s | _ -> None
