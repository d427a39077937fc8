(* Minimal deterministic JSON tree and printer.

   The observability layer writes machine-readable artifacts (Chrome
   traces, bench results, causal attributions) that must be
   byte-identical across runs of the same seed, so serialization avoids
   anything locale- or hash-order-dependent: object fields print in the
   order they were built, floats through a fixed format, and non-finite
   floats degrade to null (JSON has no representation for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Raw of string (* preformatted number, e.g. fixed-decimal timestamps *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Fixed float format: enough digits for stats, deterministic bytes. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Raw s -> Buffer.add_string buf s
  | Str s -> escape buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (key, value) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf key;
        Buffer.add_char buf ':';
        emit buf value)
      fields;
    Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 4096 in
  emit buf t;
  Buffer.contents buf

let to_channel oc t = output_string oc (to_string t)

let write_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      to_channel oc t;
      output_char oc '\n')
