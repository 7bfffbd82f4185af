(* Order statistics and the JSON writer shared by every workload. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array; [p] in [0, 1]. *)
let rank n p = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n))))

let pct_sorted a p =
  let n = Array.length a in
  if n = 0 then 0.0 else a.(rank n p - 1)

let median xs = pct_sorted (sorted xs) 0.5

type tail = { value : float; label : string; beyond : int; n : int }

(* The highest of p90, p99 and p99.9 that still has at least ten samples
   ranked above it; the sample maximum when even p90 has fewer. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let pick (p, label) =
    let beyond = n - rank n p in
    if n > 0 && beyond >= 10 then Some { value = a.(rank n p - 1); label; beyond; n } else None
  in
  match List.filter_map pick [ (0.999, "p99.9"); (0.99, "p99"); (0.9, "p90") ] with
  | t :: _ -> t
  | [] -> { value = (if n = 0 then 0.0 else a.(n - 1)); label = "max"; beyond = 0; n }

let pp_tail ppf t = Fmt.pf ppf "%s of n=%d, %d beyond" t.label t.n t.beyond

(* ---- JSON ----------------------------------------------------------------- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Obj of (string * json) list
  | Arr of json list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_buffer b = function
  | Num f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Num _ -> Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s -> Buffer.add_string b ("\"" ^ escape s ^ "\"")
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          to_buffer b v)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_string b ("\"" ^ escape k ^ "\": ");
          to_buffer b v)
        l;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 256 in
  to_buffer b j;
  Buffer.contents b

(* [a /. b], or 0 when nothing was measured. *)
let per_share a b = if b = 0.0 then 0.0 else a /. b
