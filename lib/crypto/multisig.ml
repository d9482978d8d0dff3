(* Ordered multisignatures: every listed party signs the same message.

   Equation 1 of the paper: ms(D) = sig(..., sig((D, t), p1), ..., p|V|).
   The paper notes the order of signatures is irrelevant — any complete set
   of signatures indicates agreement — so we verify set-wise against the
   expected signer list. *)

type t = { message : string; parts : (Keys.public * Keys.signature) list }

let message t = t.message

(* Each signer signs the message itself; the multisignature is the
   collection. *)
let create ~message identities =
  let parts = List.map (fun id -> (Keys.public id, Keys.sign id message)) identities in
  { message; parts }

(* Add one more signature (used when participants sign asynchronously). *)
let extend t identity =
  { t with parts = t.parts @ [ (Keys.public identity, Keys.sign identity t.message) ] }

let verify ~expected_signers t =
  let sorted l = List.sort String.compare l in
  sorted (List.map fst t.parts) = sorted expected_signers
  && List.for_all (fun (pk, s) -> Keys.verify pk t.message s) t.parts

(* Digest identifying this multisignature; AC3TW keys its witness store by
   this value and AC3WN stores it in SCw. *)
let id t =
  let ctx = Sha256.init () in
  Codec.feed [ ctx ]
    (fun w t ->
      Codec.Writer.string w "multisig";
      Codec.Writer.string w t.message;
      Codec.Writer.list w (fun w (pk, _) -> Codec.Writer.fixed w ~len:32 pk) t.parts)
    t;
  Sha256.finalize ctx

let encode w t =
  Codec.Writer.string w t.message;
  Codec.Writer.list w
    (fun w (pk, s) ->
      Codec.Writer.fixed w ~len:32 pk;
      Keys.encode_signature w s)
    t.parts

let decode r =
  let message = Codec.Reader.string r in
  let parts =
    Codec.Reader.list r (fun r ->
        let pk = Codec.Reader.fixed r ~len:32 in
        let s = Keys.decode_signature r in
        (pk, s))
  in
  { message; parts }

let to_bytes t = Codec.encode encode t

let of_bytes s = Codec.decode decode s
