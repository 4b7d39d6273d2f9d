(* One bench row: every group (sched, dispatch, chaos, cluster, conn,
   splice) reports its scenarios in this shape, and one JSON file
   ([BENCH.json]) holds the committed baselines of all of them.

   A row is keyed by (group, name, size).  [size] is "full" or
   "quick" for groups whose scenarios shrink under [--quick] (the gate
   only ever compares same-size rows) and absent for groups whose
   scenarios do not.  A metric value of -1 means "not measured on this
   row or this runtime". *)

type t = {
  group : string;
  name : string;
  size : string option;
  metrics : (string * float) list;
}

let key r = (r.group, r.name, r.size)
let metric r m = List.assoc_opt m r.metrics

let label r =
  match r.size with
  | None -> Printf.sprintf "%s %s" r.group r.name
  | Some s -> Printf.sprintf "%s %s (%s)" r.group r.name s

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)

(* Shortest decimal that reads back as the same float, so that a
   written file re-reads exactly and rewriting it changes no byte. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let exact p =
      let s = Printf.sprintf "%.*g" p v in
      if float_of_string s = v then Some s else None
    in
    match exact 15 with
    | Some s -> s
    | None -> ( match exact 16 with Some s -> s | None -> Printf.sprintf "%.17g" v)

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char b '\\';
      Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let row_to_json r =
  let fields =
    [ ("group", quote r.group); ("name", quote r.name) ]
    @ Option.to_list (Option.map (fun s -> ("size", quote s)) r.size)
    @ [
        ( "metrics",
          "{"
          ^ String.concat ","
              (List.map (fun (m, v) -> quote m ^ ":" ^ number v) r.metrics)
          ^ "}" );
      ]
  in
  "{" ^ String.concat "," (List.map (fun (k, v) -> quote k ^ ":" ^ v) fields) ^ "}"

(* One row per line, so a re-recorded baseline diffs row by row. *)
let to_json rows =
  "{\"schema\":\"hermes-bench/1\",\"rows\":[\n"
  ^ String.concat ",\n" (List.map row_to_json rows)
  ^ "\n]}\n"

(* A reader for the JSON subset [to_json] writes: objects, arrays,
   strings with backslash escapes, and numbers. *)
type json = Num of float | Str of string | Arr of json list | Obj of (string * json) list

exception Bad of string

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail what = raise (Bad (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec peek () =
    if !pos >= n then None
    else
      match s.[!pos] with
      | ' ' | '\n' | '\r' | '\t' ->
        incr pos;
        peek ()
      | c -> Some c
  in
  let expect c =
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' when !pos < n ->
        Buffer.add_char b s.[!pos];
        incr pos;
        go ()
      | '\\' -> fail "unterminated escape"
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let num () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "bad number"
  in
  let rec value () =
    match peek () with
    | Some '"' -> Str (str ())
    | Some '{' ->
      incr pos;
      Obj
        (items '}' (fun () ->
             let k = str () in
             expect ':';
             (k, value ())))
    | Some '[' ->
      incr pos;
      Arr (items ']' value)
    | Some _ -> Num (num ())
    | None -> fail "unexpected end of input"
  and items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    if peek () = Some close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        match peek () with
        | Some ',' ->
          incr pos;
          go acc
        | Some c when c = close ->
          incr pos;
          List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let v = value () in
  if peek () = None then v else fail "trailing bytes"

let row_of_json = function
  | Obj fields ->
    let str k =
      match List.assoc_opt k fields with
      | Some (Str s) -> Some s
      | None -> None
      | Some _ -> raise (Bad (Printf.sprintf "field %S is not a string" k))
    in
    let required k =
      match str k with Some s -> s | None -> raise (Bad ("row without " ^ k))
    in
    let metrics =
      match List.assoc_opt "metrics" fields with
      | Some (Obj ms) ->
        List.map
          (function
            | m, Num v -> (m, v)
            | m, _ -> raise (Bad (Printf.sprintf "metric %S is not a number" m)))
          ms
      | _ -> raise (Bad "row without a metrics object")
    in
    { group = required "group"; name = required "name"; size = str "size"; metrics }
  | _ -> raise (Bad "row is not an object")

let of_json s =
  match
    match parse s with
    | Obj fields -> (
      match List.assoc_opt "rows" fields with
      | Some (Arr rows) -> List.map row_of_json rows
      | _ -> raise (Bad "no \"rows\" array"))
    | _ -> raise (Bad "not a JSON object")
  with
  | rows -> Ok rows
  | exception Bad m -> Error m

(* ------------------------------------------------------------------ *)
(* Files                                                                *)

let read file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> Result.map_error (fun e -> file ^ ": " ^ e) (of_json s)

(* Merge by key: a row already in [file] is replaced in place, a new
   key is appended, and every other row is kept, so one file carries
   both the full-size and the quick baselines of every group. *)
let write ~file rows =
  let old =
    if Sys.file_exists file then
      match read file with Ok old -> old | Error e -> failwith ("bench: " ^ e)
    else []
  in
  let fresh r = List.find_opt (fun o -> key o = key r) rows in
  let merged =
    List.map (fun o -> Option.value (fresh o) ~default:o) old
    @ List.filter (fun r -> not (List.exists (fun o -> key o = key r) old)) rows
  in
  Out_channel.with_open_bin file (fun oc -> output_string oc (to_json merged))

(* ------------------------------------------------------------------ *)
(* Table                                                                *)

let cell v =
  if v < 0.0 then "n/a"
  else if Float.is_integer v then Printf.sprintf "%.0f" v
  else Stats.Table.cell_f v

(* One table per group: the key columns the group's rows carry, then
   every metric in first-seen order. *)
let print ~title rows =
  Printf.printf "\n=== %s ===\n" title;
  let sized = List.exists (fun r -> r.size <> None) rows in
  let metrics =
    List.fold_left
      (fun acc r ->
        acc @ List.filter (fun m -> not (List.mem m acc)) (List.map fst r.metrics))
      [] rows
  in
  let table =
    Stats.Table.create
      ~header:(("scenario" :: (if sized then [ "size" ] else [])) @ metrics)
  in
  List.iter
    (fun r ->
      Stats.Table.add_row table
        ((r.name :: (if sized then [ Option.value r.size ~default:"" ] else []))
        @ List.map (fun m -> Option.fold (metric r m) ~none:"n/a" ~some:cell) metrics))
    rows;
  Stats.Table.print table
