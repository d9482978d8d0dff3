(* Tests for the cryptographic substrate: SHA-256 against NIST vectors,
   HMAC against RFC 4231, Merkle proofs, hash-based signatures, and
   multisignatures. *)

open Ac3_crypto

(* --- Hex -------------------------------------------------------------- *)

let test_hex_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) "roundtrip" s (Hex.decode (Hex.encode s)))
    [ ""; "a"; "abc"; "\x00\xff\x80"; String.init 256 Char.chr ]

let test_hex_cases () =
  Alcotest.(check string) "lowercase output" "00ff10" (Hex.encode "\x00\xff\x10");
  Alcotest.(check string) "uppercase accepted" "\x00\xff\x10" (Hex.decode "00FF10")

let test_hex_invalid () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad char" (Invalid_argument "Hex.decode: invalid character 'z'")
    (fun () -> ignore (Hex.decode "zz"))

let qcheck_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrips any string" ~count:500 QCheck.string (fun s ->
      Hex.decode (Hex.encode s) = s)

(* --- SHA-256 ----------------------------------------------------------- *)

(* NIST FIPS 180-4 test vectors. *)
let sha256_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
  ]

let test_sha256_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) ("sha256 of " ^ input) expected (Sha256.hexdigest input))
    sha256_vectors

let test_sha256_million_a () =
  (* The classic one-million-'a' vector, fed in uneven chunks to exercise
     the streaming interface. *)
  let ctx = Sha256.init () in
  let chunk = String.make 999 'a' in
  for _ = 1 to 1001 do
    Sha256.feed_string ctx chunk
  done;
  Sha256.feed_string ctx (String.make 1 'a');
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Hex.encode (Sha256.finalize ctx))

let test_sha256_streaming_matches_oneshot () =
  let data = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let ctx = Sha256.init () in
  let rec feed pos =
    if pos < String.length data then begin
      let len = min 37 (String.length data - pos) in
      Sha256.feed_string ctx (String.sub data pos len);
      feed (pos + len)
    end
  in
  feed 0;
  Alcotest.(check string) "streaming = one-shot" (Sha256.digest data) (Sha256.finalize ctx)

let test_sha256_digest_list () =
  Alcotest.(check string) "digest_list concatenates" (Sha256.digest "foobar")
    (Sha256.digest_list [ "foo"; "bar" ])

let qcheck_sha256_deterministic =
  QCheck.Test.make ~name:"sha256 deterministic, 32 bytes" ~count:300 QCheck.string (fun s ->
      let a = Sha256.digest s and b = Sha256.digest s in
      a = b && String.length a = 32)

let qcheck_sha256_boundary_lengths =
  (* Lengths around the 64-byte block boundary and 56-byte padding pivot. *)
  QCheck.Test.make ~name:"streaming = one-shot at block boundaries" ~count:100
    QCheck.(int_range 0 130)
    (fun n ->
      let s = String.make n 'x' in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.feed_string ctx (String.make 1 c)) s;
      Sha256.finalize ctx = Sha256.digest s)

(* The FIPS 180-4 vectors again, two at a time through the 2-lane
   compression: a different message in each lane, 1-block and 2-block
   inputs in every combination (the shorter lane finishes alone). *)
let test_sha256_vectors_two_lanes () =
  List.iter
    (fun (a, ha) ->
      List.iter
        (fun (b, hb) ->
          let da, db = Sha256.digest_pair a b in
          Alcotest.(check (pair string string))
            (Printf.sprintf "lanes %S | %S" a b) (ha, hb) (Hex.encode da, Hex.encode db))
        sha256_vectors)
    sha256_vectors

let qcheck_sha256_pair =
  QCheck.Test.make ~name:"digest_pair = two digests" ~count:300
    QCheck.(pair (string_of_size Gen.(int_range 0 200)) (string_of_size Gen.(int_range 0 200)))
    (fun (a, b) -> Sha256.digest_pair a b = (Sha256.digest a, Sha256.digest b))

(* --- HMAC -------------------------------------------------------------- *)

(* RFC 4231 test cases 1, 2 and 6 (long key). *)
let test_hmac_rfc4231 () =
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hex.encode (Hmac.mac ~key:(String.make 20 '\x0b') "Hi There"));
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hex.encode (Hmac.mac ~key:"Jefe" "what do ya want for nothing?"));
  Alcotest.(check string) "case 6 (long key)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hex.encode
       (Hmac.mac ~key:(String.make 131 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_equal () =
  Alcotest.(check bool) "equal" true (Hmac.equal "abcd" "abcd");
  Alcotest.(check bool) "differs" false (Hmac.equal "abcd" "abce");
  Alcotest.(check bool) "length differs" false (Hmac.equal "abc" "abcd")

(* --- DRBG -------------------------------------------------------------- *)

let test_drbg_deterministic () =
  let a = Drbg.create ~seed:"seed" ~label:"test" in
  let b = Drbg.create ~seed:"seed" ~label:"test" in
  Alcotest.(check string) "same stream" (Drbg.bytes a 100) (Drbg.bytes b 100)

let test_drbg_label_separation () =
  let a = Drbg.create ~seed:"seed" ~label:"one" in
  let b = Drbg.create ~seed:"seed" ~label:"two" in
  Alcotest.(check bool) "labels separate streams" true (Drbg.bytes a 32 <> Drbg.bytes b 32)

let test_drbg_expand_indexed () =
  let x = Drbg.expand ~seed:"s" ~label:"l" 5 in
  let y = Drbg.expand ~seed:"s" ~label:"l" 5 in
  let z = Drbg.expand ~seed:"s" ~label:"l" 6 in
  Alcotest.(check string) "stable" x y;
  Alcotest.(check bool) "index matters" true (x <> z);
  Alcotest.(check int) "32 bytes" 32 (String.length x)

(* --- Merkle ------------------------------------------------------------ *)

let leaves n = List.init n (fun i -> Printf.sprintf "leaf-%d" i)

let test_merkle_empty_and_single () =
  Alcotest.(check string) "empty root constant" Merkle.empty_root (Merkle.root []);
  Alcotest.(check bool) "singleton differs from empty" true
    (Merkle.root [ "x" ] <> Merkle.empty_root)

let test_merkle_proofs_all_sizes () =
  List.iter
    (fun n ->
      let ls = leaves n in
      let root = Merkle.root ls in
      List.iteri
        (fun i leaf ->
          let proof = Merkle.proof ls i in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d i=%d verifies" n i)
            true
            (Merkle.verify ~root ~leaf proof))
        ls)
    [ 1; 2; 3; 4; 5; 7; 8; 9; 16; 33 ]

let test_merkle_rejects_wrong_leaf () =
  let ls = leaves 8 in
  let root = Merkle.root ls in
  let proof = Merkle.proof ls 3 in
  Alcotest.(check bool) "wrong leaf rejected" false (Merkle.verify ~root ~leaf:"evil" proof)

let test_merkle_rejects_wrong_root () =
  let ls = leaves 8 in
  let proof = Merkle.proof ls 3 in
  Alcotest.(check bool) "wrong root rejected" false
    (Merkle.verify ~root:(Sha256.digest "other") ~leaf:(List.nth ls 3) proof)

let test_merkle_order_sensitivity () =
  Alcotest.(check bool) "leaf order matters" true
    (Merkle.root [ "a"; "b" ] <> Merkle.root [ "b"; "a" ])

let test_merkle_proof_codec_roundtrip () =
  let ls = leaves 9 in
  let proof = Merkle.proof ls 5 in
  let encoded = Codec.encode Merkle.encode_proof proof in
  let decoded = Codec.decode Merkle.decode_proof encoded in
  Alcotest.(check bool) "roundtrips and verifies" true
    (Merkle.verify ~root:(Merkle.root ls) ~leaf:(List.nth ls 5) decoded)

let qcheck_merkle_random =
  QCheck.Test.make ~name:"every leaf of a random tree verifies" ~count:50
    QCheck.(list_of_size Gen.(1 -- 40) string)
    (fun ls ->
      let root = Merkle.root ls in
      List.for_all
        (fun i -> Merkle.verify ~root ~leaf:(List.nth ls i) (Merkle.proof ls i))
        (List.init (List.length ls) Fun.id))

(* --- Codec ------------------------------------------------------------- *)

let test_codec_integers () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 255;
  Codec.Writer.u16 w 65535;
  Codec.Writer.u32 w 123456789;
  Codec.Writer.i64 w (-1L);
  Codec.Writer.int w 42;
  let r = Codec.Reader.create (Codec.Writer.contents w) in
  Alcotest.(check int) "u8" 255 (Codec.Reader.u8 r);
  Alcotest.(check int) "u16" 65535 (Codec.Reader.u16 r);
  Alcotest.(check int) "u32" 123456789 (Codec.Reader.u32 r);
  Alcotest.(check int64) "i64" (-1L) (Codec.Reader.i64 r);
  Alcotest.(check int) "int" 42 (Codec.Reader.int r);
  Codec.Reader.expect_end r

let test_codec_compound () =
  let encode w (s, l, o) =
    Codec.Writer.string w s;
    Codec.Writer.list w Codec.Writer.string l;
    Codec.Writer.option w Codec.Writer.bool o
  in
  let decode r =
    let s = Codec.Reader.string r in
    let l = Codec.Reader.list r Codec.Reader.string in
    let o = Codec.Reader.option r Codec.Reader.bool in
    (s, l, o)
  in
  let v = ("hello", [ "a"; ""; "ccc" ], Some true) in
  Alcotest.(check (triple string (list string) (option bool)))
    "roundtrip" v
    (Codec.decode decode (Codec.encode encode v))

let test_codec_trailing_rejected () =
  Alcotest.check_raises "trailing bytes" (Codec.Decode_error "Codec: 1 trailing bytes")
    (fun () -> ignore (Codec.decode Codec.Reader.u8 "ab"))

let test_codec_truncation_rejected () =
  let raised =
    try
      ignore (Codec.decode Codec.Reader.u32 "ab");
      false
    with Codec.Decode_error _ -> true
  in
  Alcotest.(check bool) "truncated input rejected" true raised

let qcheck_codec_float =
  QCheck.Test.make ~name:"float encoding is exact" ~count:300 QCheck.float (fun f ->
      let f' = Codec.decode Codec.Reader.float (Codec.encode Codec.Writer.float f) in
      Int64.bits_of_float f = Int64.bits_of_float f')

(* --- JSON --------------------------------------------------------------- *)

module Json = Codec.Json

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("flag", Json.Bool true);
        ("n", Json.Int (-42));
        ("x", Json.Float 1.5);
        ("s", Json.String "quote \" backslash \\ newline \n tab \t");
        ("xs", Json.List [ Json.Int 1; Json.Float 0.25; Json.String "" ]);
        ("empty_obj", Json.Obj []);
        ("empty_list", Json.List []);
      ]
  in
  Alcotest.(check bool) "compact roundtrips" true (Json.of_string (Json.to_string v) = v);
  Alcotest.(check bool) "pretty roundtrips" true (Json.of_string (Json.to_string_pretty v) = v)

let test_json_deterministic () =
  let v = Json.Obj [ ("b", Json.Int 2); ("a", Json.Int 1) ] in
  (* printing preserves field order and is stable call to call *)
  Alcotest.(check string) "stable" (Json.to_string v) (Json.to_string v);
  Alcotest.(check string) "order preserved" {|{"b":2,"a":1}|} (Json.to_string v)

let test_json_rejects_malformed () =
  let rejects s =
    match Json.of_string s with
    | exception Codec.Decode_error _ -> ()
    | _ -> Alcotest.failf "accepted malformed JSON %S" s
  in
  rejects "";
  rejects "{";
  rejects "[1,]";
  rejects "{\"a\":1} trailing";
  rejects "\"unterminated";
  rejects "nul"

let qcheck_json_float =
  QCheck.Test.make ~name:"json float printing round-trips exactly" ~count:300
    QCheck.(map (fun f -> if Float.is_nan f || Float.is_integer f then 0.5 else f) float)
    (fun f ->
      (not (Float.is_finite f))
      || Json.of_string (Json.to_string (Json.Float f)) = Json.Float f)

(* --- WOTS --------------------------------------------------------------- *)

let test_wots_sign_verify () =
  let sk = Wots.generate ~seed:"wots-test" ~tag:"t0" in
  let pk = Wots.public sk in
  let s = Wots.sign sk "attack at dawn" in
  Alcotest.(check bool) "verifies" true (Wots.verify ~tag:"t0" pk "attack at dawn" s);
  Alcotest.(check bool) "wrong message rejected" false (Wots.verify ~tag:"t0" pk "attack at dusk" s)

let test_wots_tag_separation () =
  let sk = Wots.generate ~seed:"wots-test" ~tag:"t0" in
  let pk = Wots.public sk in
  let s = Wots.sign sk "msg" in
  Alcotest.(check bool) "wrong tag rejected" false (Wots.verify ~tag:"t1" pk "msg" s)

let test_wots_tampered_signature () =
  let sk = Wots.generate ~seed:"wots-tamper" ~tag:"t" in
  let pk = Wots.public sk in
  let s = Wots.sign sk "msg" in
  let s' = Array.copy s in
  s'.(0) <- Sha256.digest "garbage";
  Alcotest.(check bool) "tampered chain rejected" false (Wots.verify ~tag:"t" pk "msg" s')

let test_wots_codec_roundtrip () =
  let sk = Wots.generate ~seed:"wots-codec" ~tag:"t" in
  let s = Wots.sign sk "msg" in
  let s' = Codec.decode Wots.decode_signature (Codec.encode Wots.encode_signature s) in
  Alcotest.(check bool) "roundtrip verifies" true (Wots.verify ~tag:"t" (Wots.public sk) "msg" s')

(* The WOTS chain kernel against one [Sha256.digest] per step over the
   same framed message, "wots-step" | tag | u16 chain | u16 step | x. *)
let wots_frame_prefix tag =
  Codec.encode
    (fun w () ->
      Codec.Writer.string w "wots-step";
      Codec.Writer.string w tag)
    ()

let reference_chain tag i ~from_ ~to_ x =
  let v = ref x in
  for s = from_ to to_ - 1 do
    v :=
      Sha256.digest
        (Codec.encode
           (fun w () ->
             Codec.Writer.string w "wots-step";
             Codec.Writer.string w tag;
             Codec.Writer.u16 w i;
             Codec.Writer.u16 w s;
             Codec.Writer.fixed w ~len:32 !v)
           ())
  done;
  !v

let kernel_chains tag ranges xs =
  let prefix = wots_frame_prefix tag in
  let plen = String.length prefix and n = Array.length xs in
  let frame_len = plen + 36 in
  let frames = Bytes.create (n * frame_len) in
  Array.iteri
    (fun i x ->
      Bytes.blit_string prefix 0 frames (i * frame_len) plen;
      Bytes.blit_string x 0 frames (((i + 1) * frame_len) - 32) 32)
    xs;
  let flat = Array.init (2 * n) (fun j -> (if j mod 2 = 0 then fst else snd) ranges.(j / 2)) in
  Sha256.wots_chains frames ~frame_len flat;
  Array.init n (fun i -> Bytes.sub_string frames (((i + 1) * frame_len) - 32) 32)

(* Leaf tags of 1 to 5 digits (frames of 63 to 67 bytes), chain counts
   including the odd 67 of a real key, and ranges that are full (0..15)
   as in keygen, [0, s) as in signing, [s, 15) as in verification,
   empty or arbitrary; the same for every chain or mixed per chain. *)
let qcheck_wots_kernel =
  let gen =
    QCheck.Gen.(
      let* leaf =
        oneof
          [ int_range 0 9; int_range 10 99; int_range 100 999; int_range 1000 9999; int_range 10000 65535 ]
      in
      let* n = oneof [ return 67; int_range 1 9 ] in
      let step = int_range 0 15 in
      let range =
        oneof
          [
            return (0, 15);
            map (fun s -> (s, s)) step;
            map (fun s -> (0, s)) step;
            map (fun s -> (s, 15)) step;
            pair step step;
          ]
      in
      let* uniform = bool in
      let* ranges = if uniform then map (Array.make n) range else array_repeat n range in
      let* seed = string_size (return 8) in
      return (Printf.sprintf "mss-leaf:%d" leaf, ranges, seed))
  in
  QCheck.Test.make ~name:"WOTS chain kernel = one digest per step" ~count:60
    (QCheck.make
       ~print:(fun (tag, ranges, _) ->
         Printf.sprintf "%s, %d chains, ranges %s" tag (Array.length ranges)
           (String.concat " "
              (Array.to_list (Array.map (fun (f, t) -> Printf.sprintf "[%d,%d)" f t) ranges))))
       gen)
    (fun (tag, ranges, seed) ->
      let xs = Array.init (Array.length ranges) (fun i -> Sha256.digest (seed ^ string_of_int i)) in
      let expected =
        Array.mapi (fun i x -> reference_chain tag i ~from_:(fst ranges.(i)) ~to_:(snd ranges.(i)) x) xs
      in
      kernel_chains tag ranges xs = expected)

let test_wots_frame_bound () =
  let x = String.make 32 'x' in
  (* Tags up to 66 bytes make frames of up to 119 bytes: still two blocks. *)
  List.iter
    (fun len ->
      let tag = String.make len 't' in
      Alcotest.(check (array string)) (Printf.sprintf "%d-byte tag" len)
        [| reference_chain tag 0 ~from_:0 ~to_:3 x |]
        (kernel_chains tag [| (0, 3) |] [| x |]))
    [ 0; 2; 10; 66 ];
  Alcotest.check_raises "120-byte frame refused"
    (Invalid_argument "Sha256.wots_chains: 120-byte frame exceeds 119 bytes") (fun () ->
      ignore (kernel_chains (String.make 67 't') [| (0, 3) |] [| x |]));
  Alcotest.check_raises "signing with an over-long tag refused"
    (Invalid_argument "Sha256.wots_chains: 120-byte frame exceeds 119 bytes") (fun () ->
      ignore (Wots.sign (Wots.generate ~seed:"s" ~tag:(String.make 67 't')) "msg"))

(* --- MSS ---------------------------------------------------------------- *)

let test_mss_many_messages () =
  let sk = Mss.generate ~height:3 ~seed:"mss-test" () in
  let pk = Mss.public sk in
  Alcotest.(check int) "capacity" 8 (Mss.capacity sk);
  for i = 1 to 8 do
    let msg = Printf.sprintf "message %d" i in
    let s = Mss.sign sk msg in
    Alcotest.(check bool) (Printf.sprintf "sig %d verifies" i) true (Mss.verify pk msg s);
    Alcotest.(check bool)
      (Printf.sprintf "sig %d binds message" i)
      false
      (Mss.verify pk "other" s)
  done

let test_mss_exhaustion () =
  let sk = Mss.generate ~height:1 ~seed:"mss-exhaust" () in
  ignore (Mss.sign sk "a");
  ignore (Mss.sign sk "b");
  Alcotest.(check int) "spent" 0 (Mss.remaining sk);
  Alcotest.check_raises "exhausted" Mss.Key_exhausted (fun () -> ignore (Mss.sign sk "c"))

let test_mss_cross_key_rejection () =
  let sk1 = Mss.generate ~height:2 ~seed:"mss-a" () in
  let sk2 = Mss.generate ~height:2 ~seed:"mss-b" () in
  let s = Mss.sign sk1 "msg" in
  Alcotest.(check bool) "other key rejects" false (Mss.verify (Mss.public sk2) "msg" s)

let test_mss_codec_roundtrip () =
  let sk = Mss.generate ~height:2 ~seed:"mss-codec" () in
  let s = Mss.sign sk "msg" in
  let s' = Codec.decode Mss.decode_signature (Codec.encode Mss.encode_signature s) in
  Alcotest.(check bool) "roundtrip verifies" true (Mss.verify (Mss.public sk) "msg" s')

(* --- Keys / identities --------------------------------------------------- *)

let test_keys_deterministic () =
  let a = Keys.create "alice-crypto-test" in
  let b = Keys.create "alice-crypto-test" in
  Alcotest.(check string) "same public key" (Keys.public a) (Keys.public b);
  Alcotest.(check string) "same address" (Keys.address a) (Keys.address b)

let test_keys_sign_verify () =
  let id = Keys.create "signer-crypto-test" in
  let s = Keys.sign id "payload" in
  Alcotest.(check bool) "verifies" true (Keys.verify (Keys.public id) "payload" s);
  Alcotest.(check bool) "binds message" false (Keys.verify (Keys.public id) "payloae" s)

let test_keys_address_len () =
  let id = Keys.create "addr-crypto-test" in
  Alcotest.(check int) "20 bytes" Keys.address_len (String.length (Keys.address id))

(* --- Multisig ------------------------------------------------------------ *)

let test_multisig_verify () =
  let ids = [ Keys.create "ms-a"; Keys.create "ms-b"; Keys.create "ms-c" ] in
  let ms = Multisig.create ~message:"graph D at t" ids in
  let expected = List.map Keys.public ids in
  Alcotest.(check bool) "verifies" true (Multisig.verify ~expected_signers:expected ms)

let test_multisig_signer_set_mismatch () =
  let ids = [ Keys.create "ms-a"; Keys.create "ms-b" ] in
  let ms = Multisig.create ~message:"m" ids in
  let wrong = [ Keys.public (Keys.create "ms-a"); Keys.public (Keys.create "ms-z") ] in
  Alcotest.(check bool) "wrong signer set rejected" false
    (Multisig.verify ~expected_signers:wrong ms)

let test_multisig_missing_signer () =
  let a = Keys.create "ms-a" and b = Keys.create "ms-b" in
  let ms = Multisig.create ~message:"m" [ a ] in
  Alcotest.(check bool) "incomplete set rejected" false
    (Multisig.verify ~expected_signers:[ Keys.public a; Keys.public b ] ms)

let test_multisig_order_insensitive () =
  let a = Keys.create "ms-a" and b = Keys.create "ms-b" in
  let ms = Multisig.create ~message:"m2" [ b; a ] in
  Alcotest.(check bool) "any signing order accepted" true
    (Multisig.verify ~expected_signers:[ Keys.public a; Keys.public b ] ms)

let test_multisig_id_distinct () =
  let a = Keys.create "ms-a" in
  let m1 = Multisig.create ~message:"m1" [ a ] in
  let m2 = Multisig.create ~message:"m2" [ a ] in
  Alcotest.(check bool) "ids differ per message" true (Multisig.id m1 <> Multisig.id m2)

(* --- Additional edge cases ------------------------------------------------ *)

let test_sha256_digest2 () =
  Alcotest.(check string) "double hash composes" (Sha256.digest (Sha256.digest "x"))
    (Sha256.digest2 "x")

let test_merkle_proof_out_of_range () =
  Alcotest.check_raises "negative index" (Invalid_argument "Merkle.proof: index out of range")
    (fun () -> ignore (Merkle.proof [ "a" ] (-1)));
  Alcotest.check_raises "past end" (Invalid_argument "Merkle.proof: index out of range")
    (fun () -> ignore (Merkle.proof [ "a" ] 1))

let test_merkle_proof_lengths () =
  (* Height grows logarithmically. *)
  let n8 = Merkle.proof_length (Merkle.proof (leaves 8) 0) in
  let n9 = Merkle.proof_length (Merkle.proof (leaves 9) 0) in
  Alcotest.(check int) "8 leaves -> 3 levels" 3 n8;
  Alcotest.(check int) "9 leaves -> 4 levels" 4 n9

let qcheck_merkle_cross_index_rejection =
  QCheck.Test.make ~name:"a proof for index i never verifies leaf j<>i" ~count:50
    QCheck.(pair (int_range 2 20) (int_range 0 100))
    (fun (n, k) ->
      let ls = leaves n in
      let i = k mod n in
      let j = (i + 1) mod n in
      let root = Merkle.root ls in
      not (Merkle.verify ~root ~leaf:(List.nth ls j) (Merkle.proof ls i)))

let test_keys_distinct_labels_distinct_keys () =
  let a = Keys.create "distinct-a" and b = Keys.create "distinct-b" in
  Alcotest.(check bool) "different pks" true (Keys.public a <> Keys.public b);
  Alcotest.(check bool) "different addresses" true (Keys.address a <> Keys.address b)

let test_keys_signature_not_transferable () =
  let a = Keys.create "xfer-a" and b = Keys.create "xfer-b" in
  let s = Keys.sign a "msg" in
  Alcotest.(check bool) "b's key rejects a's signature" false (Keys.verify (Keys.public b) "msg" s)

let test_keys_remaining_decreases () =
  let id = Keys.create ~height:3 "remaining-counter" in
  let before = Keys.remaining_signatures id in
  ignore (Keys.sign id "x");
  Alcotest.(check int) "one fewer" (before - 1) (Keys.remaining_signatures id)

let test_multisig_codec_roundtrip () =
  let ids = [ Keys.create "msc-a"; Keys.create "msc-b" ] in
  let ms = Multisig.create ~message:"payload" ids in
  let ms' = Multisig.of_bytes (Multisig.to_bytes ms) in
  Alcotest.(check bool) "roundtrip verifies" true
    (Multisig.verify ~expected_signers:(List.map Keys.public ids) ms');
  Alcotest.(check string) "same id" (Hex.encode (Multisig.id ms)) (Hex.encode (Multisig.id ms'))

let test_multisig_extend () =
  let a = Keys.create "ext-a" and b = Keys.create "ext-b" in
  let ms = Multisig.create ~message:"m" [ a ] in
  let ms = Multisig.extend ms b in
  Alcotest.(check bool) "complete after extension" true
    (Multisig.verify ~expected_signers:[ Keys.public a; Keys.public b ] ms)

let () =
  Alcotest.run "crypto"
    [
      ( "hex",
        [
          Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "cases" `Quick test_hex_cases;
          Alcotest.test_case "invalid input" `Quick test_hex_invalid;
          QCheck_alcotest.to_alcotest qcheck_hex_roundtrip;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "NIST vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a (streaming)" `Slow test_sha256_million_a;
          Alcotest.test_case "streaming = one-shot" `Quick test_sha256_streaming_matches_oneshot;
          Alcotest.test_case "digest_list" `Quick test_sha256_digest_list;
          QCheck_alcotest.to_alcotest qcheck_sha256_deterministic;
          QCheck_alcotest.to_alcotest qcheck_sha256_boundary_lengths;
          Alcotest.test_case "NIST vectors, two lanes" `Quick test_sha256_vectors_two_lanes;
          QCheck_alcotest.to_alcotest qcheck_sha256_pair;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "constant-time equal" `Quick test_hmac_equal;
        ] );
      ( "drbg",
        [
          Alcotest.test_case "deterministic" `Quick test_drbg_deterministic;
          Alcotest.test_case "label separation" `Quick test_drbg_label_separation;
          Alcotest.test_case "indexed expand" `Quick test_drbg_expand_indexed;
        ] );
      ( "merkle",
        [
          Alcotest.test_case "empty and single" `Quick test_merkle_empty_and_single;
          Alcotest.test_case "proofs at many sizes" `Quick test_merkle_proofs_all_sizes;
          Alcotest.test_case "wrong leaf rejected" `Quick test_merkle_rejects_wrong_leaf;
          Alcotest.test_case "wrong root rejected" `Quick test_merkle_rejects_wrong_root;
          Alcotest.test_case "order sensitivity" `Quick test_merkle_order_sensitivity;
          Alcotest.test_case "proof codec roundtrip" `Quick test_merkle_proof_codec_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_merkle_random;
        ] );
      ( "codec",
        [
          Alcotest.test_case "integers" `Quick test_codec_integers;
          Alcotest.test_case "compound" `Quick test_codec_compound;
          Alcotest.test_case "trailing rejected" `Quick test_codec_trailing_rejected;
          Alcotest.test_case "truncation rejected" `Quick test_codec_truncation_rejected;
          QCheck_alcotest.to_alcotest qcheck_codec_float;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "deterministic printing" `Quick test_json_deterministic;
          Alcotest.test_case "malformed rejected" `Quick test_json_rejects_malformed;
          QCheck_alcotest.to_alcotest qcheck_json_float;
        ] );
      ( "wots",
        [
          Alcotest.test_case "sign/verify" `Quick test_wots_sign_verify;
          Alcotest.test_case "tag separation" `Quick test_wots_tag_separation;
          Alcotest.test_case "tampered signature" `Quick test_wots_tampered_signature;
          Alcotest.test_case "codec roundtrip" `Quick test_wots_codec_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_wots_kernel;
          Alcotest.test_case "frame length bound" `Quick test_wots_frame_bound;
        ] );
      ( "mss",
        [
          Alcotest.test_case "many messages" `Quick test_mss_many_messages;
          Alcotest.test_case "exhaustion" `Quick test_mss_exhaustion;
          Alcotest.test_case "cross-key rejection" `Quick test_mss_cross_key_rejection;
          Alcotest.test_case "codec roundtrip" `Quick test_mss_codec_roundtrip;
        ] );
      ( "keys",
        [
          Alcotest.test_case "deterministic" `Quick test_keys_deterministic;
          Alcotest.test_case "sign/verify" `Quick test_keys_sign_verify;
          Alcotest.test_case "address length" `Quick test_keys_address_len;
        ] );
      ( "multisig",
        [
          Alcotest.test_case "verify" `Quick test_multisig_verify;
          Alcotest.test_case "signer set mismatch" `Quick test_multisig_signer_set_mismatch;
          Alcotest.test_case "missing signer" `Quick test_multisig_missing_signer;
          Alcotest.test_case "order insensitive" `Quick test_multisig_order_insensitive;
          Alcotest.test_case "ids distinct" `Quick test_multisig_id_distinct;
          Alcotest.test_case "codec roundtrip" `Quick test_multisig_codec_roundtrip;
          Alcotest.test_case "extend" `Quick test_multisig_extend;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "digest2 composes" `Quick test_sha256_digest2;
          Alcotest.test_case "merkle proof out of range" `Quick test_merkle_proof_out_of_range;
          Alcotest.test_case "merkle proof lengths" `Quick test_merkle_proof_lengths;
          QCheck_alcotest.to_alcotest qcheck_merkle_cross_index_rejection;
          Alcotest.test_case "distinct labels distinct keys" `Quick
            test_keys_distinct_labels_distinct_keys;
          Alcotest.test_case "signatures not transferable" `Quick
            test_keys_signature_not_transferable;
          Alcotest.test_case "remaining decreases" `Quick test_keys_remaining_decreases;
        ] );
    ]
