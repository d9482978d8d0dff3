(* Dynamically typed values for smart-contract state, constructor
   arguments, and function-call arguments. A small, canonical, codec-able
   universe keeps contract execution deterministic and hashable. *)

module Codec = Ac3_crypto.Codec
module Hex = Ac3_crypto.Hex

type t =
  | Unit
  | Bool of bool
  | Int of int64
  | Float of float
  | String of string
  | Bytes of string (* raw bytes; printed as hex *)
  | List of t list
  | Pair of t * t
  | Tagged of string * t (* constructor-like tagging, e.g. states *)

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> Int64.equal x y
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | String x, String y | Bytes x, Bytes y -> String.equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | Pair (x1, x2), Pair (y1, y2) -> equal x1 y1 && equal x2 y2
  | Tagged (tx, vx), Tagged (ty, vy) -> String.equal tx ty && equal vx vy
  | (Unit | Bool _ | Int _ | Float _ | String _ | Bytes _ | List _ | Pair _ | Tagged _), _ ->
      false

let rec pp ppf = function
  | Unit -> Fmt.string ppf "()"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.pf ppf "%Ld" i
  | Float f -> Fmt.float ppf f
  | String s -> Fmt.pf ppf "%S" s
  | Bytes b -> Fmt.pf ppf "0x%s" (Hex.short ~n:16 b)
  | List l -> Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any "; ") pp) l
  | Pair (a, b) -> Fmt.pf ppf "(%a, %a)" pp a pp b
  | Tagged (tag, Unit) -> Fmt.string ppf tag
  | Tagged (tag, v) -> Fmt.pf ppf "%s(%a)" tag pp v

let to_string v = Fmt.str "%a" pp v

let rec encode w = function
  | Unit -> Codec.Writer.u8 w 0
  | Bool b ->
      Codec.Writer.u8 w 1;
      Codec.Writer.bool w b
  | Int i ->
      Codec.Writer.u8 w 2;
      Codec.Writer.i64 w i
  | Float f ->
      Codec.Writer.u8 w 3;
      Codec.Writer.float w f
  | String s ->
      Codec.Writer.u8 w 4;
      Codec.Writer.string w s
  | Bytes b ->
      Codec.Writer.u8 w 5;
      Codec.Writer.string w b
  | List l ->
      Codec.Writer.u8 w 6;
      Codec.Writer.list w encode l
  | Pair (a, b) ->
      Codec.Writer.u8 w 7;
      encode w a;
      encode w b
  | Tagged (tag, v) ->
      Codec.Writer.u8 w 8;
      Codec.Writer.string w tag;
      encode w v

let rec decode r =
  match Codec.Reader.u8 r with
  | 0 -> Unit
  | 1 -> Bool (Codec.Reader.bool r)
  | 2 -> Int (Codec.Reader.i64 r)
  | 3 -> Float (Codec.Reader.float r)
  | 4 -> String (Codec.Reader.string r)
  | 5 -> Bytes (Codec.Reader.string r)
  | 6 -> List (Codec.Reader.list r decode)
  | 7 ->
      let a = decode r in
      let b = decode r in
      Pair (a, b)
  | 8 ->
      let tag = Codec.Reader.string r in
      Tagged (tag, decode r)
  | v -> raise (Codec.Decode_error (Printf.sprintf "Value: bad tag %d" v))

let to_bytes v = Codec.encode encode v

let of_bytes s = Codec.decode decode s

(* Accessors returning [Result]; contracts use these to validate their
   arguments and report a clean rejection instead of raising. *)
let as_int = function Int i -> Ok i | v -> Error (Fmt.str "expected int, got %a" pp v)

let as_string = function String s -> Ok s | v -> Error (Fmt.str "expected string, got %a" pp v)

let as_bytes = function Bytes b -> Ok b | v -> Error (Fmt.str "expected bytes, got %a" pp v)

let as_list = function List l -> Ok l | v -> Error (Fmt.str "expected list, got %a" pp v)

(* Record-style access: a [List] of [Pair (String key, value)] bindings. *)
let record fields = List (List.map (fun (k, v) -> Pair (String k, v)) fields)

let field v key =
  match v with
  | List l ->
      let rec find = function
        | [] -> Error (Fmt.str "missing field %S" key)
        | Pair (String k, v) :: _ when String.equal k key -> Ok v
        | _ :: rest -> find rest
      in
      find l
  | v -> Error (Fmt.str "expected record, got %a" pp v)

(* Functional field update (insert or replace). *)
let set_field v key value =
  match v with
  | List l ->
      let replaced = ref false in
      let l' =
        List.map
          (function
            | Pair (String k, _) when String.equal k key ->
                replaced := true;
                Pair (String k, value)
            | binding -> binding)
          l
      in
      let l' = if !replaced then l' else l' @ [ Pair (String key, value) ] in
      Ok (List l')
  | v -> Error (Fmt.str "expected record, got %a" pp v)

(* Result helpers for contract code. *)
let ( let* ) r f = Result.bind r f
