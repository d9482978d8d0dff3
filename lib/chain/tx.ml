(* Transactions.

   A transaction spends input UTXOs (each authorized by the owner's
   signature over the transaction's signing hash) and creates outputs.
   Following the paper's transactional model (Sec 2.3), a transaction can
   merge and split assets, deploy a smart contract with locked assets, or
   invoke a smart contract function. The chain id is part of the signed
   body, so a transaction for one blockchain can never be replayed on
   another. *)

module Codec = Ac3_crypto.Codec
module Sha256 = Ac3_crypto.Sha256
module Keys = Ac3_crypto.Keys

type output = { addr : string; amount : Amount.t }

type input = { outpoint : Outpoint.t; pubkey : Keys.public }

type payload =
  | Transfer
  | Deploy of { code_id : string; args : Value.t; deposit : Amount.t }
  | Call of { contract_id : string; fn : string; args : Value.t; deposit : Amount.t }
  | Coinbase of { height : int }

type t = {
  chain : string;
  inputs : input list;
  witnesses : Keys.signature array; (* parallel to [inputs] *)
  outputs : output list;
  payload : payload;
  fee : Amount.t;
  nonce : int64;
}

let encode_output w (o : output) =
  Codec.Writer.string w o.addr;
  Amount.encode w o.amount

let decode_output r =
  let addr = Codec.Reader.string r in
  let amount = Amount.decode r in
  { addr; amount }

let encode_input w (i : input) =
  Outpoint.encode w i.outpoint;
  Codec.Writer.fixed w ~len:32 i.pubkey

let decode_input r =
  let outpoint = Outpoint.decode r in
  let pubkey = Codec.Reader.fixed r ~len:32 in
  { outpoint; pubkey }

let encode_payload w = function
  | Transfer -> Codec.Writer.u8 w 0
  | Deploy { code_id; args; deposit } ->
      Codec.Writer.u8 w 1;
      Codec.Writer.string w code_id;
      Value.encode w args;
      Amount.encode w deposit
  | Call { contract_id; fn; args; deposit } ->
      Codec.Writer.u8 w 2;
      Codec.Writer.string w contract_id;
      Codec.Writer.string w fn;
      Value.encode w args;
      Amount.encode w deposit
  | Coinbase { height } ->
      Codec.Writer.u8 w 3;
      Codec.Writer.u32 w height

let decode_payload r =
  match Codec.Reader.u8 r with
  | 0 -> Transfer
  | 1 ->
      let code_id = Codec.Reader.string r in
      let args = Value.decode r in
      let deposit = Amount.decode r in
      Deploy { code_id; args; deposit }
  | 2 ->
      let contract_id = Codec.Reader.string r in
      let fn = Codec.Reader.string r in
      let args = Value.decode r in
      let deposit = Amount.decode r in
      Call { contract_id; fn; args; deposit }
  | 3 -> Coinbase { height = Codec.Reader.u32 r }
  | v -> raise (Codec.Decode_error (Printf.sprintf "Tx.payload: bad tag %d" v))

(* The signed body: everything except the witnesses. *)
let encode_body w t =
  Codec.Writer.string w t.chain;
  Codec.Writer.list w encode_input t.inputs;
  Codec.Writer.list w encode_output t.outputs;
  encode_payload w t.payload;
  Amount.encode w t.fee;
  Codec.Writer.i64 w t.nonce

(* Sighash memo, keyed by the full serialized body — any change to the
   signed fields changes the key, so a mutated transaction can never be
   served a stale hash. Signing and per-input verification both hash
   the same body; with several inputs the body is serialized once. *)
let sighash_memo : string Ac3_fast.Memo.t = Ac3_fast.Memo.create ~name:"tx.sighash" ~cap:4096

let sighash t =
  let body = Codec.encode encode_body t in
  Ac3_fast.Memo.memo sighash_memo body (fun () -> Sha256.digest_list [ "tx-sighash"; body ])

let encode w t =
  encode_body w t;
  Codec.Writer.u16 w (Array.length t.witnesses);
  Array.iter (Keys.encode_signature w) t.witnesses

let decode r =
  let chain = Codec.Reader.string r in
  let inputs = Codec.Reader.list r decode_input in
  let outputs = Codec.Reader.list r decode_output in
  let payload = decode_payload r in
  let fee = Amount.decode r in
  let nonce = Codec.Reader.i64 r in
  let n = Codec.Reader.u16 r in
  let witnesses = Array.init n (fun _ -> Keys.decode_signature r) in
  { chain; inputs; witnesses; outputs; payload; fee; nonce }

let to_bytes t = Codec.encode encode t

let of_bytes s = Codec.decode decode s

(* Txid memo, keyed by the full serialization (witnesses included):
   structural identity, so mutating any field — including a witness
   array slot — misses and recomputes. The mempool, block assembly,
   store indexing and Merkle commitments all re-derive txids of the
   same transactions; this makes the repeats one table hit. *)
let txid_memo : string Ac3_fast.Memo.t = Ac3_fast.Memo.create ~name:"tx.txid" ~cap:4096

let txid t =
  let bytes = to_bytes t in
  Ac3_fast.Memo.memo txid_memo bytes (fun () -> Sha256.digest2 bytes)

(* Total value entering the transaction must be accounted for by the
   ledger against the UTXOs it spends; here we only know declared sums. *)
let output_total t = Amount.sum (List.map (fun (o : output) -> o.amount) t.outputs)

let deposit t =
  match t.payload with
  | Deploy { deposit; _ } | Call { deposit; _ } -> deposit
  | Transfer | Coinbase _ -> Amount.zero

let is_coinbase t = match t.payload with Coinbase _ -> true | _ -> false

(* Build and sign in one step. [inputs] pairs each spent outpoint with the
   identity that owns it; the same identity may appear several times. *)
let make ~chain ~inputs ~outputs ?(payload = Transfer) ~fee ~nonce () =
  let unsigned =
    {
      chain;
      inputs = List.map (fun (op, id) -> { outpoint = op; pubkey = Keys.public id }) inputs;
      witnesses = [||];
      outputs;
      payload;
      fee;
      nonce;
    }
  in
  let h = sighash unsigned in
  let witnesses = Array.of_list (List.map (fun (_, id) -> Keys.sign id h) inputs) in
  { unsigned with witnesses }

(* Unsigned transaction for throughput stress runs on chains configured
   with [verify_signatures = false]; carries the claimed public keys but
   no witnesses. *)
let make_unsigned ~chain ~inputs ~outputs ?(payload = Transfer) ~fee ~nonce () =
  {
    chain;
    inputs = List.map (fun (op, pk) -> { outpoint = op; pubkey = pk }) inputs;
    witnesses = [||];
    outputs;
    payload;
    fee;
    nonce;
  }

let coinbase ~chain ~height ~miner_addr ~reward =
  {
    chain;
    inputs = [];
    witnesses = [||];
    outputs = [ { addr = miner_addr; amount = reward } ];
    payload = Coinbase { height };
    fee = Amount.zero;
    nonce = Int64.of_int height;
  }

(* Signature validity: one witness per input, each verifying under the
   input's claimed public key. Ownership (pubkey matches the spent UTXO's
   address) is checked by the ledger, which knows the UTXO set. *)
let verify_signatures t =
  List.length t.inputs = Array.length t.witnesses
  && begin
       let h = sighash t in
       List.for_all2
         (fun (i : input) w -> Keys.verify i.pubkey h w)
         t.inputs
         (Array.to_list t.witnesses)
     end
