type value = Int of int | Num of int * float | Text of string | Flag of bool

type row = {
  workload : string;
  variant : string;
  fields : (string * value) list;
}
type enforcement = Enforced | Reported of string

type check = {
  name : string;
  what : string;
  enforcement : enforcement;
  items : (string * bool) list;
}

type report = {
  gate : string;
  title : string;
  facts : (string * value) list;
  rows : row list;
  checks : check list;
}

let show = function
  | Int i -> string_of_int i
  | Num (decimals, x) -> Printf.sprintf "%.*f" decimals x
  | Text s -> s
  | Flag b -> string_of_bool b

let same a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Num (_, x), Num (_, y) -> Float.equal x y
  | Text x, Text y -> String.equal x y
  | Flag x, Flag y -> x = y
  | _ -> false

let equal ?(enforcement = Enforced) name what pairs =
  let item (where, got, want) =
    let ok = same got want in
    let g, w =
      match (got, want) with
      | Num (_, x), Num (_, y) when (not ok) && show got = show want ->
          (Printf.sprintf "%.17g" x, Printf.sprintf "%.17g" y)
      | _ -> (show got, show want)
    in
    (Printf.sprintf "%s: %s %s %s" where g (if ok then "=" else "<>") w, ok)
  in
  { name; what; enforcement; items = List.map item pairs }

type op = Le | Lt | Ge | Gt

let bound ?(enforcement = Enforced) name what limits =
  let item (where, measured, op, limit) =
    let ok, sym =
      match op with
      | Le -> (measured <= limit, "<=")
      | Lt -> (measured < limit, "<")
      | Ge -> (measured >= limit, ">=")
      | Gt -> (measured > limit, ">")
    in
    (Printf.sprintf "%s: %.6g %s %.6g" where measured sym limit, ok)
  in
  { name; what; enforcement; items = List.map item limits }

let holds c = List.for_all snd c.items

let failed r =
  List.filter_map
    (fun c ->
      if c.enforcement = Enforced && not (holds c) then Some c.name else None)
    r.checks

let ok r = failed r = []

let check r name =
  match List.find_opt (fun c -> String.equal c.name name) r.checks with
  | Some c -> c
  | None -> invalid_arg ("Gate.check: no check " ^ name)

let fact r name =
  match List.assoc_opt name r.facts with
  | Some v -> v
  | None -> invalid_arg ("Gate.fact: no fact " ^ name)

let field row name =
  match List.assoc_opt name row.fields with
  | Some v -> v
  | None -> invalid_arg ("Gate.field: no field " ^ name)

(* ------------------------------------------------------------------ *)
(* rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* consecutive rows with the same field names share one table *)
let render_rows rows =
  let names row = List.map fst row.fields in
  let table group =
    let headers = "workload" :: "variant" :: names (List.hd group) in
    Rmi_stats.Ascii_table.render ~headers
      (List.map
         (fun row ->
           row.workload :: row.variant
           :: List.map (fun (_, v) -> show v) row.fields)
         group)
  in
  let rec groups acc cur = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | row :: rest -> (
        match cur with
        | prev :: _ when names prev <> names row ->
            groups (List.rev cur :: acc) [ row ] rest
        | _ -> groups acc (row :: cur) rest)
  in
  List.map table (groups [] [] rows)

let render_check c =
  let failing =
    List.filter_map (fun (s, ok) -> if ok then None else Some s) c.items
  in
  match (c.items, c.enforcement) with
  | [], _ -> Printf.sprintf "[n/a]  %s: %s (nothing to compare)" c.name c.what
  | _, Enforced when failing = [] ->
      Printf.sprintf "[ok]   %s: %s" c.name c.what
  | _, Enforced ->
      Printf.sprintf "[FAIL] %s: %s -- %s" c.name c.what
        (String.concat "; " failing)
  | _, Reported why ->
      Printf.sprintf "[info] %s: %s -- %s; not enforced (%s): %s" c.name c.what
        (if failing = [] then "holds" else "does not hold")
        why
        (String.concat "; " (List.map fst c.items))

let render r =
  String.concat "\n"
    ((r.title :: render_rows r.rows)
    @ List.map (fun (k, v) -> Printf.sprintf "%s: %s" k (show v)) r.facts
    @ List.map render_check r.checks)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_value = function
  | Int i -> string_of_int i
  | Num (_, x) when not (Float.is_finite x) -> "null"
  | Num _ as v -> show v
  | Text s -> json_string s
  | Flag b -> string_of_bool b

let json_members kvs =
  String.concat ", "
    (List.map (fun (k, v) -> json_string k ^ ": " ^ json_value v) kvs)

let to_json r =
  let head =
    [ ("gate", Text r.gate); ("title", Text r.title); ("ok", Flag (ok r)) ]
    @ r.facts
    @ List.map (fun c -> (c.name, Flag (holds c))) r.checks
  in
  let row x =
    "    {"
    ^ json_members
        ((("workload", Text x.workload) :: ("variant", Text x.variant)
         :: x.fields))
    ^ "}"
  in
  Printf.sprintf "{\n%s,\n  \"rows\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map
          (fun (k, v) -> "  " ^ json_string k ^ ": " ^ json_value v)
          head))
    (String.concat ",\n" (List.map row r.rows))

(* A reader for the subset of JSON the validator needs: objects,
   arrays, strings, numbers, booleans and null. *)
type json =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of json list
  | Object of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Bad_json (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec skip () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      skip ()
    end
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
              | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
              | Some _ -> Buffer.add_char b '?'
              | None -> fail "bad \\u escape");
              pos := !pos + 4
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = '}' then (incr pos; Object [])
        else
          let rec members acc =
            let k = string () in
            expect ':';
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              members ((k, v) :: acc)
            end
            else begin
              expect '}';
              Object (List.rev ((k, v) :: acc))
            end
          in
          members []
    | '[' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = ']' then (incr pos; Array [])
        else
          let rec elems acc =
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              elems (v :: acc)
            end
            else begin
              expect ']';
              Array (List.rev (v :: acc))
            end
          in
          elems []
    | '"' -> String (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f when !pos > start -> Number f
        | _ -> fail "bad value")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing bytes";
  v

let validate ~gate ~keys ~row_keys ?rows text =
  let missing where have want =
    match List.filter (fun k -> not (List.mem_assoc k have)) want with
    | [] -> Ok ()
    | l ->
        Error
          (Printf.sprintf "%s: missing key(s) %s" where (String.concat ", " l))
  in
  let ( let* ) = Result.bind in
  let* top =
    match parse_json text with
    | Object kvs -> Ok kvs
    | _ -> Error "not a JSON object"
    | exception Bad_json msg -> Error ("malformed JSON: " ^ msg)
  in
  let* () =
    match List.assoc_opt "gate" top with
    | Some (String g) when String.equal g gate -> Ok ()
    | Some (String g) -> Error (Printf.sprintf "gate %S, expected %S" g gate)
    | _ -> Error "no \"gate\" name"
  in
  let* () = missing "report" top ("title" :: "ok" :: "rows" :: keys) in
  let* rows_json =
    match List.assoc "rows" top with
    | Array l -> Ok l
    | _ -> Error "\"rows\" is not an array"
  in
  let* () =
    List.fold_left
      (fun acc (i, r) ->
        let* () = acc in
        match r with
        | Object kvs ->
            missing (Printf.sprintf "row %d" i) kvs
              ("workload" :: "variant" :: row_keys)
        | _ -> Error (Printf.sprintf "row %d is not an object" i))
      (Ok ())
      (List.mapi (fun i r -> (i, r)) rows_json)
  in
  let* () =
    match rows with
    | Some want when want <> List.length rows_json ->
        Error
          (Printf.sprintf "expected %d rows, got %d" want
             (List.length rows_json))
    | _ -> Ok ()
  in
  match List.assoc "ok" top with
  | Bool true -> Ok ()
  | _ -> Error "the report's \"ok\" verdict is not true"

(* ------------------------------------------------------------------ *)
(* sampling                                                            *)
(* ------------------------------------------------------------------ *)

type sample = {
  wall_s : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

let measure f =
  let g0 = Gc.quick_stat () in
  let t0 = Rmi_net.Clock.now () in
  let minor0 = Gc.minor_words () in
  f ();
  let minor1 = Gc.minor_words () in
  let t1 = Rmi_net.Clock.now () in
  let g1 = Gc.quick_stat () in
  {
    wall_s = t1 -. t0;
    minor_words = minor1 -. minor0;
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
  }
