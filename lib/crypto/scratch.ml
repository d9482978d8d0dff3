(* Per-domain scratch buffers of the transaction path.

   OCaml allocates a block of more than 256 words (2 KB) straight in the
   major heap, so a multi-kilobyte buffer built and dropped per call is
   major-heap garbage: every transaction body encoded to be hashed, every
   WOTS walk's chain frames. The buffers below are built once per domain
   and reused instead. Each field belongs to one function and is reached
   only through that function's accessors below, which grow it on
   demand; what it holds is valid until this domain's next call of that
   function, and no caller keeps it longer.
   Domains never share a scratch, and no owner calls back into code that
   could reach its own field, except [Codec]'s writer, which a nested
   encoder can reach: [codec_busy] sends that one to a fresh writer. *)

type t = {
  mutable codec : Bytes.t; (* Codec.encode / Codec.feed: the writer's storage *)
  mutable codec_busy : bool;
  mutable frames : Bytes.t; (* Wots.walk: the chain frames *)
  mutable ranges : int array; (* Wots.walk: the chain ranges *)
  mac : Sha256.ctx; (* Hmac.mac_prk *)
}

let create () =
  {
    codec = Bytes.create 256;
    codec_busy = false;
    frames = Bytes.empty;
    ranges = [||];
    mac = Sha256.init ();
  }

(* ac3-lint: allow D008 — domain-local scratch buffers; every value computed with them is a pure function of the input *)
let key = Domain.DLS.new_key create

(* ac3-lint: allow D008 — reads this domain's own scratch buffers *)
let get () = Domain.DLS.get key

let codec_take () =
  let s = get () in
  if s.codec_busy then None
  else begin
    s.codec_busy <- true;
    Some s.codec
  end

let codec_give b =
  let s = get () in
  s.codec <- b;
  s.codec_busy <- false

let wots_frames len =
  let s = get () in
  if Bytes.length s.frames < len then s.frames <- Bytes.create len;
  s.frames

let wots_ranges len =
  let s = get () in
  if Array.length s.ranges < len then s.ranges <- Array.make len 0;
  s.ranges

let mac () = (get ()).mac
