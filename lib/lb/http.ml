type meth = GET | HEAD | POST | PUT | DELETE | OPTIONS | PATCH

let meth_of_string = function
  | "GET" -> Some GET
  | "HEAD" -> Some HEAD
  | "POST" -> Some POST
  | "PUT" -> Some PUT
  | "DELETE" -> Some DELETE
  | "OPTIONS" -> Some OPTIONS
  | "PATCH" -> Some PATCH
  | _ -> None

let meth_to_string = function
  | GET -> "GET"
  | HEAD -> "HEAD"
  | POST -> "POST"
  | PUT -> "PUT"
  | DELETE -> "DELETE"
  | OPTIONS -> "OPTIONS"
  | PATCH -> "PATCH"

type request = {
  meth : meth;
  target : string;
  version : string;
  headers : (string * string) list;
  body : string;
}

type parse_error =
  | Truncated
  | Bad_request_line of string
  | Bad_header of string
  | Unsupported_method of string

let find_crlf s from =
  let n = String.length s in
  let rec go i =
    if i + 1 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' then Some i
    else go (i + 1)
  in
  go from

let split_request_line line =
  match String.split_on_char ' ' line with
  | [ m; target; version ] when target <> "" -> Ok (m, target, version)
  | _ -> Error (Bad_request_line line)

let parse_header line =
  match String.index_opt line ':' with
  | None | Some 0 -> Error (Bad_header line)
  | Some i ->
    let name = String.lowercase_ascii (String.sub line 0 i) in
    let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
    if String.exists (fun c -> c = ' ' || c = '\t') name then Error (Bad_header line)
    else Ok (name, value)

let rec parse_headers s pos acc =
  match find_crlf s pos with
  | None -> Error Truncated
  | Some i when i = pos -> Ok (List.rev acc, pos + 2) (* blank line *)
  | Some i -> (
    let line = String.sub s pos (i - pos) in
    match parse_header line with
    | Error e -> Error e
    | Ok header -> parse_headers s (i + 2) (header :: acc))

let lookup headers name =
  let name = String.lowercase_ascii name in
  List.assoc_opt name headers

let parse_request s =
  match find_crlf s 0 with
  | None -> Error Truncated
  | Some i -> (
    let line = String.sub s 0 i in
    match split_request_line line with
    | Error e -> Error e
    | Ok (m, target, version) -> (
      match meth_of_string m with
      | None -> Error (Unsupported_method m)
      | Some meth -> (
        match parse_headers s (i + 2) [] with
        | Error e -> Error e
        | Ok (headers, body_start) ->
          let content_len =
            match lookup headers "content-length" with
            | None -> 0
            | Some v -> ( try max 0 (int_of_string (String.trim v)) with _ -> 0)
          in
          if content_len > String.length s - body_start then Error Truncated
          else
            let body = String.sub s body_start content_len in
            Ok ({ meth; target; version; headers; body }, body_start + content_len)
        )))

let header req name = lookup req.headers name
let host req = header req "host"

let path req =
  match String.index_opt req.target '?' with
  | None -> req.target
  | Some i -> String.sub req.target 0 i

let content_length req =
  match header req "content-length" with
  | None -> 0
  | Some v -> ( try int_of_string (String.trim v) with _ -> -1)

let token_list v =
  String.split_on_char ',' v
  |> List.map (fun t -> String.lowercase_ascii (String.trim t))

let is_websocket_upgrade req =
  (match header req "connection" with
  | Some v -> List.mem "upgrade" (token_list v)
  | None -> false)
  &&
  match header req "upgrade" with
  | Some v -> List.mem "websocket" (token_list v)
  | None -> false

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

let status_reason = function
  | 100 -> "Continue"
  | 101 -> "Switching Protocols"
  | 200 -> "OK"
  | 201 -> "Created"
  | 204 -> "No Content"
  | 301 -> "Moved Permanently"
  | 302 -> "Found"
  | 304 -> "Not Modified"
  | 400 -> "Bad Request"
  | 403 -> "Forbidden"
  | 404 -> "Not Found"
  | 408 -> "Request Timeout"
  | 429 -> "Too Many Requests"
  | 499 -> "Client Closed Request"
  | 500 -> "Internal Server Error"
  | 502 -> "Bad Gateway"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Unknown"

let response ?(headers = []) ?(body = "") status =
  let headers =
    headers @ [ ("content-length", string_of_int (String.length body)) ]
  in
  { status; reason = status_reason status; resp_headers = headers; resp_body = body }

let serialize_headers buf headers =
  List.iter
    (fun (name, value) ->
      Buffer.add_string buf name;
      Buffer.add_string buf ": ";
      Buffer.add_string buf value;
      Buffer.add_string buf "\r\n")
    headers

let serialize_response r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "HTTP/1.1 %d %s\r\n" r.status r.reason);
  serialize_headers buf r.resp_headers;
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf r.resp_body;
  Buffer.contents buf

let serialize_request req =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s %s %s\r\n" (meth_to_string req.meth) req.target req.version);
  serialize_headers buf req.headers;
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf req.body;
  Buffer.contents buf
