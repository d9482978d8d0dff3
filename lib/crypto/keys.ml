(* End-user identities: a thin facade over the MSS many-time signature
   scheme, plus address derivation.

   Identities are deterministic from a seed string, so simulated
   participants ("alice", "bob", miners, ...) are reproducible. Key
   generation is the expensive step (2^height WOTS key generations), so
   generated key material is memoized by (seed, height); callers that need
   independent signers across trials should embed the trial id in the
   seed. *)

type public = string (* 32-byte MSS root *)

type signature = Mss.signature

type t = { label : string; secret : Mss.secret; public : public }

let address_len = 20

(* Address = truncated hash of the public key, like Bitcoin's HASH160.
   Memoized by the public key itself: input resolution re-derives the
   owner address of every spent input on every admission poll. *)
let address_memo : string Ac3_fast.Memo.t = Ac3_fast.Memo.create ~name:"keys.address" ~cap:1024

let address_of_public pk =
  Ac3_fast.Memo.memo address_memo pk (fun () ->
      String.sub (Sha256.digest_list [ "addr"; pk ]) 0 address_len)

(* The memo table is shared process state: parallel sweeps (ac3_par
   domains) create identities concurrently, so every access holds the
   mutex — an unguarded Hashtbl corrupts its buckets under domains.
   Generation happens inside the lock on purpose: two domains racing on
   the same cold label must agree on ONE secret (secrets carry a
   mutable signature counter), not insert two equal-valued copies and
   hand out different ones. Contention only exists on cold labels. *)
let cache : (string * int, Mss.secret) Hashtbl.t = Hashtbl.create 64

(* ac3-lint: allow D004 — this lock IS the determinism fix for the shared memo table (see comment above) *)
let cache_mutex = Mutex.create ()

let default_height = 6 (* 64 signatures per identity *)

let generate_secret ~height label =
  Mss.generate ~height ~seed:(Sha256.digest ("identity:" ^ label)) ()

let create ?(height = default_height) label =
  let key = (label, height) in
  let secret =
    (* ac3-lint: allow D004 — guards the cross-domain memo table; the held value is seed-deterministic *)
    Mutex.protect cache_mutex (fun () ->
        match Hashtbl.find_opt cache key with
        | Some s -> s
        | None ->
            let s = generate_secret ~height label in
            Hashtbl.add cache key s;
            s)
  in
  { label; secret; public = Mss.public secret }

(* Same key material as [create] but never memoized: every call starts
   with a full, unconsumed signature budget. Repeated identical runs
   (chaos replays) need this — sharing a cached secret across runs would
   leak signature-counter state from one run into the next. *)
let fresh ?(height = default_height) label =
  let secret = generate_secret ~height label in
  { label; secret; public = Mss.public secret }

let label t = t.label

let public t = t.public

let address t = address_of_public t.public

let remaining_signatures t = Mss.remaining t.secret

let sign t msg = Mss.sign t.secret msg

(* Verification memo. Swap protocols re-verify the same evidence
   signatures at every depth poll, so caching pays; the key is the
   SHA-256 of the FULL (pk, signature, msg) serialization — structural
   identity under the same collision resistance the rest of the system
   already rests on — so a mutated signature or message can only miss,
   never alias a stale verdict. The self-delimiting [Codec] frames keep
   distinct triples from framing ambiguously before hashing. Hashing
   down to 32 bytes keeps the table's keys (and each lookup's compare)
   small: a serialized MSS triple is a couple of kilobytes, and
   re-verification is frequent enough that the allocation shows up as
   GC time. Verdicts are pure functions of the key. *)
let verify_memo : bool Ac3_fast.Memo.t = Ac3_fast.Memo.create ~name:"keys.verify" ~cap:4096

let verify_key pk msg signature =
  let w = Codec.Writer.create () in
  Codec.Writer.fixed w ~len:32 pk;
  Mss.encode_signature w signature;
  Codec.Writer.string w msg;
  Sha256.digest (Codec.Writer.contents w)

let verify pk msg signature =
  if not (Ac3_fast.Memo.enabled ()) then Mss.verify pk msg signature
  else
    match verify_key pk msg signature with
    | key -> Ac3_fast.Memo.memo verify_memo key (fun () -> Mss.verify pk msg signature)
    | exception _ ->
        (* Malformed pk or signature shapes can't be framed; verify
           directly (the answer is [false] anyway). *)
        Mss.verify pk msg signature

let encode_signature = Mss.encode_signature

let decode_signature = Mss.decode_signature
