(* End-user identities: a thin facade over the MSS many-time signature
   scheme, plus address derivation.

   Identities are deterministic from a seed string, so simulated
   participants ("alice", "bob", miners, ...) are reproducible. Key
   generation is the expensive step (2^height WOTS key generations), so
   generated key material is memoized by (seed, height). Independent
   signers need independent signature budgets, not independent keys:
   [create] gives every call a full budget over the memoized material,
   so trials that never exchange messages (the chaos sweep's universes)
   reuse one fixed cast of labels. *)

type public = string (* 32-byte MSS root *)

type signature = Mss.signature

let address_len = 20

(* Address = truncated hash of the public key, like Bitcoin's HASH160.
   An identity's own address is a field fixed when it is built
   ([create]); this derivation serves public keys seen bare on
   the wire (transaction inputs, contract arguments). *)
let address_of_public pk = String.sub (Sha256.digest_list [ "addr"; pk ]) 0 address_len

type t = { label : string; secret : Mss.secret; public : public; address : string }

let of_secret label secret =
  let public = Mss.public secret in
  { label; secret; public; address = address_of_public public }

let default_height = 6 (* 64 signatures per identity *)

(* Every call builds a new signer with a full, unconsumed signature
   budget: identities never share a counter, so neither repeated runs in
   one process nor domains of a parallel sweep can exhaust or reuse each
   other's leaves. Only the immutable key material is shared, through
   the [mss.material] memo. *)
let create ?(height = default_height) label =
  of_secret label (Mss.generate ~height ~seed:(Sha256.digest ("identity:" ^ label)) ())

let fresh = create

let label t = t.label

let public t = t.public

let address t = t.address

let remaining_signatures t = Mss.remaining t.secret

let sign t msg = Mss.sign t.secret msg

(* Verification memo. The same signature is verified again and again:
   the witness contract's multisig check on every call that carries it,
   and a ledger's admission, candidate selection and block application
   of one transaction. A miss costs a full MSS verification, so
   caching pays; the key is the SHA-256 of the FULL (pk, signature,
   msg) serialization — structural identity under the same collision
   resistance the rest of the system already rests on — so a mutated
   signature or message can only miss, never alias a stale verdict.
   The self-delimiting [Codec] frames keep distinct triples from
   framing ambiguously before hashing. Hashing down to 32 bytes keeps
   the table's keys (and each lookup's compare) small: a serialized MSS
   triple is a couple of kilobytes, and re-verification is frequent
   enough that the allocation shows up as GC time. Verdicts are pure
   functions of the key. *)
let verify_memo : bool Memo.t = Memo.create ~name:"keys.verify" ~cap:1024

(* The digest of the (pk, signature, msg) frame, hashed from Codec's
   scratch writer ([Codec.feed]) and then the message: building the
   frame as a string would copy a couple of kilobytes into the major
   heap on every call, memo hits included. *)
let verify_key pk msg signature =
  let ctx = Sha256.init () in
  Codec.feed [ ctx ]
    (fun w () ->
      Codec.Writer.fixed w ~len:32 pk;
      Mss.encode_signature w signature;
      Codec.Writer.u32 w (String.length msg))
    ();
  Sha256.feed_string ctx msg;
  Sha256.finalize ctx

let verify pk msg signature =
  if not (Memo.enabled ()) then Mss.verify pk msg signature
  else
    match verify_key pk msg signature with
    | key -> Memo.memo verify_memo key (fun () -> Mss.verify pk msg signature)
    | exception _ ->
        (* Malformed pk or signature shapes can't be framed; verify
           directly (the answer is [false] anyway). *)
        Mss.verify pk msg signature

let encode_signature = Mss.encode_signature

let decode_signature = Mss.decode_signature
