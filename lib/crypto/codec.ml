(* Canonical binary encoding used for everything that is hashed or signed
   (transactions, block headers, contract values, AC2T graphs).

   The format is deliberately simple: fixed-width big-endian integers,
   length-prefixed strings, count-prefixed lists. Encoding is injective for
   a fixed schema, which is all hashing and signing need. *)

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* A growable byte buffer. [Codec.encode] and [Codec.feed] run on this
   domain's scratch writer ([Scratch]), grown once to the largest
   encoding it has held, so an encoding of any size costs one copy at
   its exact length, or none when it is only hashed. *)
module Writer = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 256; len = 0 }

  let contents w = Bytes.sub_string w.buf 0 w.len

  (* Room for [n] more bytes, doubling on growth; returns where they go. *)
  let reserve w n =
    let at = w.len in
    if at + n > Bytes.length w.buf then begin
      let buf = Bytes.create (max (at + n) (2 * Bytes.length w.buf)) in
      Bytes.blit w.buf 0 buf 0 at;
      w.buf <- buf
    end;
    w.len <- at + n;
    at

  let u8 w v =
    if v < 0 || v > 0xFF then invalid_arg "Codec.u8: out of range";
    Bytes.set_uint8 w.buf (reserve w 1) v

  let u16 w v =
    if v < 0 || v > 0xFFFF then invalid_arg "Codec.u16: out of range";
    Bytes.set_uint16_be w.buf (reserve w 2) v

  let u32 w v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec.u32: out of range";
    let at = reserve w 4 in
    Bytes.set_uint16_be w.buf at (v lsr 16);
    Bytes.set_uint16_be w.buf (at + 2) (v land 0xFFFF)

  let i64 w (v : int64) = Bytes.set_int64_be w.buf (reserve w 8) v

  let int w v = i64 w (Int64.of_int v)

  let bool w v = u8 w (if v then 1 else 0)

  let float w v = i64 w (Int64.bits_of_float v)

  let bytes w s = Bytes.blit_string s 0 w.buf (reserve w (String.length s)) (String.length s)

  (* Length-prefixed byte string. *)
  let string w s =
    u32 w (String.length s);
    bytes w s

  (* Fixed-width byte string: no length prefix; decoder must know the width. *)
  let fixed w ~len s =
    if String.length s <> len then
      invalid_arg (Printf.sprintf "Codec.fixed: expected %d bytes, got %d" len (String.length s));
    bytes w s

  let list w encode_item items =
    u32 w (List.length items);
    List.iter (encode_item w) items

  let option w encode_item = function
    | None -> u8 w 0
    | Some v ->
        u8 w 1;
        encode_item w v
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  let create data = { data; pos = 0 }

  let remaining r = String.length r.data - r.pos

  let need r n = if remaining r < n then fail "Codec: truncated input (need %d, have %d)" n (remaining r)

  let u8 r =
    need r 1;
    let v = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let u16 r =
    let hi = u8 r in
    let lo = u8 r in
    (hi lsl 8) lor lo

  let u32 r =
    let a = u16 r in
    let b = u16 r in
    (a lsl 16) lor b

  let i64 r =
    need r 8;
    let v = ref 0L in
    for _ = 0 to 7 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (u8 r))
    done;
    !v

  let int r = Int64.to_int (i64 r)

  let bool r = match u8 r with 0 -> false | 1 -> true | v -> fail "Codec.bool: invalid byte %d" v

  let float r = Int64.float_of_bits (i64 r)

  let string r =
    let n = u32 r in
    need r n;
    let s = String.sub r.data r.pos n in
    r.pos <- r.pos + n;
    s

  let fixed r ~len =
    need r len;
    let s = String.sub r.data r.pos len in
    r.pos <- r.pos + len;
    s

  let list r decode_item =
    let n = u32 r in
    let rec loop acc k = if k = 0 then List.rev acc else loop (decode_item r :: acc) (k - 1) in
    loop [] n

  let option r decode_item =
    match u8 r with
    | 0 -> None
    | 1 -> Some (decode_item r)
    | v -> fail "Codec.option: invalid tag %d" v

  let expect_end r = if remaining r <> 0 then fail "Codec: %d trailing bytes" (remaining r)

  let pos r = r.pos

  let feed_since r ctx start =
    if start < 0 || start > r.pos then invalid_arg "Codec.Reader.feed_since: bad start";
    Sha256.feed_bytes ctx (Bytes.unsafe_of_string r.data) start (r.pos - start)
end

(* JSON: the interchange format for artifacts meant to be read, diffed
   and committed (chaos fault plans, reproducer corpora) — in contrast
   to the binary writers above, which serve hashing and signing.

   Serialization is deterministic: object fields print in the order
   given, floats as shortest-exact decimals ("%.17g" fallback) so a
   parse/print round trip is byte-stable. Only the JSON subset the
   repo emits is supported: no \u escapes beyond ASCII, numbers are
   OCaml ints or binary64 floats. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  (* Shortest decimal that parses back to the same binary64. *)
  let float_repr f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else
      let s = Printf.sprintf "%.15g" f in
      if float_of_string s = f then s
      else
        let s = Printf.sprintf "%.16g" f in
        if float_of_string s = f then s else Printf.sprintf "%.17g" f

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

  let rec write ~indent ~level buf t =
    let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
    let sep () = if indent then Buffer.add_string buf "\n" in
    match t with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        sep ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              sep ()
            end;
            pad (level + 1);
            write ~indent ~level:(level + 1) buf item)
          items;
        sep ();
        pad level;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        sep ();
        List.iteri
          (fun i (k, v) ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              sep ()
            end;
            pad (level + 1);
            escape buf k;
            Buffer.add_string buf (if indent then ": " else ":");
            write ~indent ~level:(level + 1) buf v)
          fields;
        sep ();
        pad level;
        Buffer.add_char buf '}'

  let emit ~indent t =
    let buf = Buffer.create 256 in
    write ~indent ~level:0 buf t;
    Buffer.contents buf

  let to_string t = emit ~indent:false t

  let to_string_pretty t = emit ~indent:true t ^ "\n"

  (* --- Recursive-descent parser --------------------------------------- *)

  type parser_state = { src : string; mutable at : int }

  let peek p = if p.at < String.length p.src then Some p.src.[p.at] else None

  let advance p = p.at <- p.at + 1

  let skip_ws p =
    while
      match peek p with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance p;
          true
      | _ -> false
    do
      ()
    done

  let expect p c =
    match peek p with
    | Some got when got = c -> advance p
    | got ->
        fail "Json: expected %c at offset %d, got %s" c p.at
          (match got with Some g -> Printf.sprintf "%c" g | None -> "end of input")

  let parse_literal p lit value =
    if
      p.at + String.length lit <= String.length p.src
      && String.sub p.src p.at (String.length lit) = lit
    then begin
      p.at <- p.at + String.length lit;
      value
    end
    else fail "Json: invalid literal at offset %d" p.at

  let parse_string p =
    expect p '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek p with
      | None -> fail "Json: unterminated string"
      | Some '"' -> advance p
      | Some '\\' -> (
          advance p;
          match peek p with
          | Some '"' -> advance p; Buffer.add_char buf '"'; go ()
          | Some '\\' -> advance p; Buffer.add_char buf '\\'; go ()
          | Some '/' -> advance p; Buffer.add_char buf '/'; go ()
          | Some 'n' -> advance p; Buffer.add_char buf '\n'; go ()
          | Some 'r' -> advance p; Buffer.add_char buf '\r'; go ()
          | Some 't' -> advance p; Buffer.add_char buf '\t'; go ()
          | Some 'u' ->
              advance p;
              if p.at + 4 > String.length p.src then fail "Json: truncated \\u escape";
              let code = int_of_string ("0x" ^ String.sub p.src p.at 4) in
              if code > 0xFF then fail "Json: non-ASCII \\u escape unsupported";
              p.at <- p.at + 4;
              Buffer.add_char buf (Char.chr code);
              go ()
          | _ -> fail "Json: bad escape at offset %d" p.at)
      | Some c ->
          advance p;
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf

  let parse_number p =
    let start = p.at in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek p with Some c when is_num_char c -> true | _ -> false) do
      advance p
    done;
    let s = String.sub p.src start (p.at - start) in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'E' then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail "Json: bad number %S" s
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt s with
          | Some f -> Float f
          | None -> fail "Json: bad number %S" s)

  let rec parse_value p =
    skip_ws p;
    match peek p with
    | None -> fail "Json: empty input"
    | Some 'n' -> parse_literal p "null" Null
    | Some 't' -> parse_literal p "true" (Bool true)
    | Some 'f' -> parse_literal p "false" (Bool false)
    | Some '"' -> String (parse_string p)
    | Some '[' ->
        advance p;
        skip_ws p;
        if peek p = Some ']' then begin
          advance p;
          List []
        end
        else
          let rec items acc =
            let v = parse_value p in
            skip_ws p;
            match peek p with
            | Some ',' ->
                advance p;
                items (v :: acc)
            | Some ']' ->
                advance p;
                List.rev (v :: acc)
            | _ -> fail "Json: expected , or ] at offset %d" p.at
          in
          List (items [])
    | Some '{' ->
        advance p;
        skip_ws p;
        if peek p = Some '}' then begin
          advance p;
          Obj []
        end
        else
          let rec fields acc =
            skip_ws p;
            let k = parse_string p in
            skip_ws p;
            expect p ':';
            let v = parse_value p in
            skip_ws p;
            match peek p with
            | Some ',' ->
                advance p;
                fields ((k, v) :: acc)
            | Some '}' ->
                advance p;
                List.rev ((k, v) :: acc)
            | _ -> fail "Json: expected , or } at offset %d" p.at
          in
          Obj (fields [])
    | Some _ -> parse_number p

  let of_string s =
    let p = { src = s; at = 0 } in
    let v = parse_value p in
    skip_ws p;
    if p.at <> String.length s then fail "Json: %d trailing bytes" (String.length s - p.at);
    v

  (* --- Accessors (raise Decode_error on shape mismatch) ---------------- *)

  let member key = function
    | Obj fields -> (
        match List.assoc_opt key fields with
        | Some v -> v
        | None -> fail "Json: missing field %S" key)
    | _ -> fail "Json: not an object (looking up %S)" key

  let member_opt key = function Obj fields -> List.assoc_opt key fields | _ -> None

  let to_int = function Int i -> i | _ -> fail "Json: expected int"

  let to_float = function Float f -> f | Int i -> float_of_int i | _ -> fail "Json: expected number"

  let to_bool = function Bool b -> b | _ -> fail "Json: expected bool"

  let to_str = function String s -> s | _ -> fail "Json: expected string"

  let to_list = function List l -> l | _ -> fail "Json: expected array"
end

(* [with_scratch k] runs [k] on this domain's scratch writer, emptied.
   An encoder that encodes (the scratch is busy) gets a fresh writer;
   one that raises leaves the scratch free, with any growth kept. *)
let with_scratch k =
  match Scratch.codec_take () with
  | None -> k (Writer.create ())
  | Some buf -> (
      let w = { Writer.buf; len = 0 } in
      match k w with
      | r ->
          Scratch.codec_give w.buf;
          r
      | exception e ->
          Scratch.codec_give w.buf;
          raise e)

(* Encode a value with [f] to a standalone string. *)
let encode f v =
  with_scratch (fun w ->
      f w v;
      Writer.contents w)

let feed ctxs f v =
  with_scratch (fun w ->
      f w v;
      List.iter (fun ctx -> Sha256.feed_bytes ctx w.buf 0 w.len) ctxs)

(* Decode a whole string with [f], requiring full consumption. *)
let decode f s =
  let r = Reader.create s in
  let v = f r in
  Reader.expect_end r;
  v
