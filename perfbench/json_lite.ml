(* A minimal JSON reader for the daemon's [stats] reply, plus the few
   writers the result line needs.  Numbers are kept as floats. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () <> c then raise (Parse_error (Printf.sprintf "expected %c at %d" c !pos));
    incr pos
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Parse_error "unterminated string");
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          let e = peek () in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' ->
              (* Escaped code points only occur in names we never read;
                 keep them verbatim. *)
              Buffer.add_string b ("\\u" ^ String.sub s !pos 4);
              pos := !pos + 4
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            let k = string_lit () in
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> raise (Parse_error (Printf.sprintf "bad object at %d" !pos))
          in
          fields []
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> raise (Parse_error (Printf.sprintf "bad array at %d" !pos))
          in
          items []
    | '"' -> Str (string_lit ())
    | 't' -> pos := !pos + 4; Bool true
    | 'f' -> pos := !pos + 5; Bool false
    | 'n' -> pos := !pos + 4; Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr pos
        done;
        let tok = String.sub s start (!pos - start) in
        (match float_of_string_opt tok with
        | Some f -> Num f
        | None -> raise (Parse_error (Printf.sprintf "bad value at %d" start)))
  in
  value ()

let member k = function Obj fs -> List.assoc_opt k fs | _ -> None

let num = function Some (Num f) -> f | _ -> 0.0

let items = function Some (Arr l) -> l | _ -> []

(* Writers. *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  "\"" ^ Buffer.contents b ^ "\""

(* Every digit a double carries, and never a bare nan/inf. *)
let float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"
