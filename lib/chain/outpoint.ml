(* A reference to a transaction output: (txid, output index). *)

module Codec = Ac3_crypto.Codec
module Hex = Ac3_crypto.Hex

type t = { txid : string; index : int }

let create ~txid ~index =
  if String.length txid <> 32 then invalid_arg "Outpoint.create: txid must be 32 bytes";
  if index < 0 then invalid_arg "Outpoint.create: negative index";
  { txid; index }

let equal a b = String.equal a.txid b.txid && a.index = b.index

let compare a b =
  let c = String.compare a.txid b.txid in
  if c <> 0 then c else Int.compare a.index b.index

(* The record has the layout of the pair [(txid, index)], so this is
   that pair's hash, without building the pair on every probe.
   ac3-lint: allow D005 — immutable string*int pair: no floats, no mutable fields, depth 1 *)
let hash (t : t) = Hashtbl.hash t

let pp ppf t = Fmt.pf ppf "%s:%d" (Hex.short t.txid) t.index

let encode w t =
  Codec.Writer.fixed w ~len:32 t.txid;
  Codec.Writer.u32 w t.index

let decode r =
  let txid = Codec.Reader.fixed r ~len:32 in
  let index = Codec.Reader.u32 r in
  { txid; index }

module Map = Map.Make (struct
  type nonrec t = t

  (* ac3-lint: allow D005 — aliases the typed Outpoint.compare above, not Stdlib.compare *)
  let compare = compare
end)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)
