(* The one JSON printer. Every JSON document the project writes (the
   metrics dump, every Chrome trace, the BENCH_*.json files) is built as a
   [t] and printed by [to_string], so there is one escaping rule and one
   layout.

   Layout: an object or array at depth 0 or 1 puts each element on its own
   line, indented two spaces per level; deeper values print on one line,
   with ", " between elements and ": " after keys. An empty array or
   object prints as [] or {}. The document ends with a newline. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | ch when Char.code ch < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code ch)
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.add_char b '"'

(* The fewest of 15, 16 or 17 significant digits that read back to the
   same float, with ".0" added to an integral value so it reads back as a
   float. JSON has no non-finite numbers: nan and the infinities print as
   null. *)
let float_text f =
  if not (Float.is_finite f) then "null"
  else
    let digits p = Printf.sprintf "%.*g" p f in
    let next s p = if float_of_string s = f then s else digits p in
    let s = List.fold_left next (digits 15) [ 16; 17 ] in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let rec add b depth = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_text f)
  | Str s -> add_string b s
  | Arr vs -> add_seq b depth ('[', ']') (add b (depth + 1)) vs
  | Obj kvs ->
    add_seq b depth ('{', '}')
      (fun (k, v) ->
        add_string b k;
        Buffer.add_string b ": ";
        add b (depth + 1) v)
      kvs

(* [item] prints each of [xs]; this lays them out between [op] and [cl] *)
and add_seq : 'a. Buffer.t -> int -> char * char -> ('a -> unit) -> 'a list -> unit =
 fun b depth (op, cl) item xs ->
  let lines = depth <= 1 && xs <> [] in
  let newline d = if lines then Printf.bprintf b "\n%s" (String.make (2 * d) ' ') in
  Buffer.add_char b op;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b (if lines then "," else ", ");
      newline (depth + 1);
      item x)
    xs;
  newline depth;
  Buffer.add_char b cl

let to_string v =
  let b = Buffer.create 4096 in
  add b 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b
