(* The parsetree walk: one pass per file, all rules at once.

   Checks are identifier-based — a rule fires on a [Pexp_ident] whose
   flattened path matches, whether the identifier is applied or passed
   first-class — with three refinements: directory-based exemptions
   (computed from the repo-relative path), a "sorted context" for D006
   ([Sys.readdir] nested anywhere inside the arguments of a sort call
   is fine) and a function depth for D009 (a keygen outside every
   [fun]/[function] runs at module initialisation). Everything is
   syntactic; there is no type information, so [module H = Hashtbl]
   aliasing evades the rules — suppressions and review cover that
   gap. *)

open Parsetree
module Diagnostic = Ac3_verify.Diagnostic

type finding = { f_rule : Rules.id; f_line : int; f_diag : Diagnostic.t }

(* --- path-based exemptions -------------------------------------------- *)

type ctx = {
  relpath : string;
  allow_random : bool;  (** the two sanctioned RNG homes *)
  allow_domains : bool;  (** lib/par *)
  allow_stdout : bool;  (** bin/ *)
}

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let ctx_of_relpath relpath =
  {
    relpath;
    allow_random = relpath = "lib/sim/rng.ml" || relpath = "lib/crypto/drbg.ml";
    allow_domains = has_prefix ~prefix:"lib/par/" relpath;
    allow_stdout = has_prefix ~prefix:"bin/" relpath;
  }

(* --- identifier classification ---------------------------------------- *)

let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply _ -> []

let unordered_table_fn = [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let rec last2 = function
  | [ a; b ] -> Some (a, b)
  | _ :: (_ :: _ as tl) -> last2 tl
  | _ -> None

let print_names =
  [ "print_string"; "print_endline"; "print_newline"; "print_int"; "print_char"; "print_float"; "print_bytes" ]

(* The matching rule for one identifier path, if any. [ctx] applies the
   directory exemptions; [sorted] is the D006 enclosing-sort context;
   [at_init] holds outside every [fun]/[function], where a structure
   item's expression runs when its module initialises (D009). *)
let classify ~ctx ~sorted ~at_init path =
  let name = String.concat "." path in
  let tbl_iteration =
    match last2 path with
    | Some (("Hashtbl" | "Table" | "Tbl"), fn) -> List.mem fn unordered_table_fn
    | _ -> false
  in
  let keygen =
    match last2 path with
    | Some ("Keys", ("create" | "fresh")) | Some ("Mss", "generate") -> true
    | _ -> false
  in
  match path with
  | _ when keygen && at_init ->
      Some
        ( Rules.D009,
          Printf.sprintf
            "%s generates MSS key material when the module initialises, so every process that \
             links it pays the keygen before main runs; build the key inside the function that \
             uses it"
            name )
  | _ when tbl_iteration ->
      Some
        ( Rules.D001,
          Printf.sprintf
            "%s iterates in hash-bucket order, which is not a stable order across inserts or \
             resizes; sort the keys (or switch to Map) before the result can reach output, \
             hashing, or metrics"
            name )
  | "Random" :: _ when not ctx.allow_random ->
      Some
        ( Rules.D002,
          Printf.sprintf
            "%s draws from ambient global RNG state; derive randomness from a seed the caller \
             threads in (Ac3_sim.Rng / Ac3_crypto.Drbg are the only sanctioned homes)"
            name )
  | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] | [ "Sys"; "time" ] ->
      Some
        ( Rules.D003,
          Printf.sprintf
            "%s reads the host clock; simulator code runs on virtual time only — wall-clock \
             timing belongs in perfbench/"
            name )
  | "Domain" :: "DLS" :: _ when not ctx.allow_domains ->
      Some
        ( Rules.D008,
          Printf.sprintf
            "%s keys state by the executing domain, which is scheduling-dependent by \
             construction; only the pool (lib/par) may touch domain-local storage"
            name )
  | [ "Domain"; ("spawn" | "join") ] | "Atomic" :: _ | "Mutex" :: _ | "Condition" :: _
    when not ctx.allow_domains ->
      Some
        ( Rules.D004,
          Printf.sprintf
            "%s is a domain-parallelism primitive; concurrency is centralized in lib/par so \
             every determinism argument stays local to the pool"
            name )
  | [ "compare" ] | [ "Stdlib"; "compare" ] ->
      Some
        ( Rules.D005,
          Printf.sprintf
            "polymorphic %s orders by structural representation: NaN breaks its total order and \
             mutable state makes it time-dependent; use a typed comparison (Float.compare, \
             String.compare, a record compare)"
            name )
  | [ "Hashtbl"; ("hash" | "hash_param" | "seeded_hash") ] ->
      Some
        ( Rules.D005,
          Printf.sprintf
            "%s is depth-limited and representation-dependent (floats, mutable fields); hash an \
             explicit canonical encoding instead"
            name )
  | [ "Sys"; "readdir" ] when sorted = 0 ->
      Some
        ( Rules.D006,
          "Sys.readdir returns entries in filesystem order; sort the result before it can \
           influence anything observable" )
  | ([ p ] | [ "Stdlib"; p ]) when List.mem p print_names && not ctx.allow_stdout ->
      Some
        ( Rules.D007,
          Printf.sprintf
            "%s writes to stdout from library code; stdout is reserved for bin/ so command \
             output stays byte-stable"
            name )
  | [ "Printf"; "printf" ] | [ "Format"; "printf" ] | [ "Format"; "print_string" ]
  | [ "Fmt"; "pr" ] | [ "stdout" ] | [ "Stdlib"; "stdout" ]
    when not ctx.allow_stdout ->
      Some
        ( Rules.D007,
          Printf.sprintf
            "%s writes to stdout from library code; stdout is reserved for bin/ so command \
             output stays byte-stable"
            name )
  | _ -> None

(* Sort applications open a D006-sanctioned context for their
   arguments. *)
let is_sort_fn path =
  match path with
  | [ ("List" | "Array"); ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") ] -> true
  | _ -> false

(* --- the walk ---------------------------------------------------------- *)

let check_structure ~ctx structure =
  let findings = ref [] in
  let sorted = ref 0 in
  let funs = ref 0 in
  let emit ~loc (rule, message) =
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    let diag =
      Diagnostic.error ~rule:(Rules.slug rule)
        ~location:(Printf.sprintf "%s:%d" ctx.relpath line)
        "%s" message
    in
    findings := { f_rule = rule; f_line = line; f_diag = diag } :: !findings
  in
  let within depth f =
    incr depth;
    Fun.protect ~finally:(fun () -> decr depth) f
  in
  let expr iterator (e : expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } -> (
        match classify ~ctx ~sorted:!sorted ~at_init:(!funs = 0) (flatten txt) with
        | Some hit -> emit ~loc hit
        | None -> ())
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) when is_sort_fn (flatten txt) ->
        within sorted (fun () -> List.iter (fun (_, a) -> iterator.Ast_iterator.expr iterator a) args)
    | Pexp_fun _ | Pexp_function _ ->
        within funs (fun () -> Ast_iterator.default_iterator.expr iterator e)
    | _ -> Ast_iterator.default_iterator.expr iterator e
  in
  let iterator = { Ast_iterator.default_iterator with expr } in
  iterator.Ast_iterator.structure iterator structure;
  List.rev !findings

type result = {
  findings : finding list;  (** raw rule hits, pre-suppression *)
  parse_error : Diagnostic.t option;  (** D000; never suppressible *)
}

(* Raw findings for one file, before suppression filtering. A file
   that does not parse yields a D000 parse error instead. *)
let check_source ~relpath source =
  let ctx = ctx_of_relpath relpath in
  match Source.parse ~relpath source with
  | Error msg ->
      {
        findings = [];
        parse_error =
          Some
            (Diagnostic.error ~rule:Rules.meta_slug ~location:relpath "file does not parse: %s" msg);
      }
  | Ok structure -> { findings = check_structure ~ctx structure; parse_error = None }
