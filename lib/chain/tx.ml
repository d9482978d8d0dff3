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

(* Immutable, with both ids fixed at construction: every constructor
   below serializes the body once, hashes it into the signing hash and
   ends in [assemble], which derives the txid from the same bytes and
   the witnesses. Reading an id is a field access, so the mempool,
   block assembly, store indexes, Merkle commitments and evidence
   proofs never re-serialize a transaction to learn its id. *)
type t = {
  chain : string;
  inputs : input list;
  witnesses : Keys.signature list; (* parallel to [inputs] *)
  outputs : output list;
  payload : payload;
  fee : Amount.t;
  nonce : int64;
  txid : string;
  sighash : string;
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
let encode_body w ~chain ~inputs ~outputs ~payload ~fee ~nonce =
  Codec.Writer.string w chain;
  Codec.Writer.list w encode_input inputs;
  Codec.Writer.list w encode_output outputs;
  encode_payload w payload;
  Amount.encode w fee;
  Codec.Writer.i64 w nonce

let encode_witnesses w witnesses =
  Codec.Writer.u16 w (List.length witnesses);
  List.iter (Keys.encode_signature w) witnesses

let body_bytes ~chain ~inputs ~outputs ~payload ~fee ~nonce =
  let w = Codec.Writer.create () in
  encode_body w ~chain ~inputs ~outputs ~payload ~fee ~nonce;
  Codec.Writer.contents w

let sighash_of_body body = Sha256.digest_list [ "tx-sighash"; body ]

(* The txid is the double SHA-256 of the full encoding, body followed by
   the witnesses; streaming both parts avoids concatenating them. *)
let assemble ~body ~sighash ~chain ~inputs ~witnesses ~outputs ~payload ~fee ~nonce =
  let txid =
    Sha256.digest (Sha256.digest_list [ body; Codec.encode encode_witnesses witnesses ])
  in
  { chain; inputs; witnesses; outputs; payload; fee; nonce; txid; sighash }

let raw ~chain ~inputs ~witnesses ~outputs ~payload ~fee ~nonce =
  let body = body_bytes ~chain ~inputs ~outputs ~payload ~fee ~nonce in
  assemble ~body ~sighash:(sighash_of_body body) ~chain ~inputs ~witnesses ~outputs ~payload
    ~fee ~nonce

let sighash t = t.sighash

let txid t = t.txid

let encode w t =
  encode_body w ~chain:t.chain ~inputs:t.inputs ~outputs:t.outputs ~payload:t.payload ~fee:t.fee
    ~nonce:t.nonce;
  encode_witnesses w t.witnesses

let decode r =
  let chain = Codec.Reader.string r in
  let inputs = Codec.Reader.list r decode_input in
  let outputs = Codec.Reader.list r decode_output in
  let payload = decode_payload r in
  let fee = Amount.decode r in
  let nonce = Codec.Reader.i64 r in
  let n = Codec.Reader.u16 r in
  let witnesses = List.init n (fun _ -> Keys.decode_signature r) in
  raw ~chain ~inputs ~witnesses ~outputs ~payload ~fee ~nonce

let to_bytes t = Codec.encode encode t

let of_bytes s = Codec.decode decode s

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
  let signers = List.map snd inputs in
  let inputs = List.map (fun (op, id) -> { outpoint = op; pubkey = Keys.public id }) inputs in
  let body = body_bytes ~chain ~inputs ~outputs ~payload ~fee ~nonce in
  let sighash = sighash_of_body body in
  let witnesses = List.map (fun id -> Keys.sign id sighash) signers in
  assemble ~body ~sighash ~chain ~inputs ~witnesses ~outputs ~payload ~fee ~nonce

(* Unsigned transaction for throughput stress runs on chains configured
   with [verify_signatures = false]; carries the claimed public keys but
   no witnesses. *)
let make_unsigned ~chain ~inputs ~outputs ?(payload = Transfer) ~fee ~nonce () =
  let inputs = List.map (fun (op, pk) -> { outpoint = op; pubkey = pk }) inputs in
  raw ~chain ~inputs ~witnesses:[] ~outputs ~payload ~fee ~nonce

let coinbase_with ~chain ~height ~outputs =
  raw ~chain ~inputs:[] ~witnesses:[] ~outputs ~payload:(Coinbase { height }) ~fee:Amount.zero
    ~nonce:(Int64.of_int height)

let coinbase ~chain ~height ~miner_addr ~reward =
  coinbase_with ~chain ~height ~outputs:[ { addr = miner_addr; amount = reward } ]

(* The genesis block's coinbase: height 0, paying the premine. *)
let genesis ~chain ~premine =
  coinbase_with ~chain ~height:0
    ~outputs:(List.map (fun (addr, amount) -> { addr; amount }) premine)

(* Signature validity: one witness per input, each verifying under the
   input's claimed public key. Ownership (pubkey matches the spent UTXO's
   address) is checked by the ledger, which knows the UTXO set. *)
let verify_signatures t =
  List.compare_lengths t.inputs t.witnesses = 0
  && List.for_all2 (fun (i : input) w -> Keys.verify i.pubkey t.sighash w) t.inputs t.witnesses
