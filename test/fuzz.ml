(* Input generators for the parser fuzz properties: uniformly random
   bytes, valid inputs with one range overwritten by a token chosen to
   hit a parser's edge cases (huge numbers, separators), and valid
   inputs with one run of digits replaced by such a token. *)

let splice s ~pos ~len ins =
  String.sub s 0 pos ^ ins ^ String.sub s (pos + len) (String.length s - pos - len)

let digit_runs s =
  let is_digit i = i < String.length s && s.[i] >= '0' && s.[i] <= '9' in
  let rec go i acc =
    if i >= String.length s then List.rev acc
    else if is_digit i && (i = 0 || not (is_digit (i - 1))) then begin
      let j = ref i in
      while is_digit !j do
        incr j
      done;
      go !j ((i, !j - i) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

let gen_mutant ~tokens valid =
  QCheck.Gen.(
    valid >>= fun s ->
    let n = String.length s in
    int_bound n >>= fun pos ->
    int_bound (min 8 (n - pos)) >>= fun len ->
    oneof [ oneofl tokens; string_size ~gen:printable (int_bound 8) ]
    >|= fun ins -> splice s ~pos ~len ins)

let gen_number_swap ~tokens valid =
  QCheck.Gen.(
    valid >>= fun s ->
    match digit_runs s with
    | [] -> return s
    | runs ->
      oneofl runs >>= fun (pos, len) ->
      oneofl tokens >|= fun ins -> splice s ~pos ~len ins)

let arb_input ~tokens valid =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      frequency
        [
          (1, string_size ~gen:char (int_bound 64));
          (3, gen_mutant ~tokens valid);
          (2, gen_number_swap ~tokens valid);
        ])
