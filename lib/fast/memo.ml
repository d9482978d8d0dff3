(* Content-addressed memo tables (see the interface for the caching
   contract). Values are pure functions of their full serialized key, so
   per-domain tables are semantically invisible: a cold cache and a warm
   cache compute the same answers, only at different speeds. *)

(* Written before any domain is spawned (CLI flag parsing, test setup);
   domain spawn synchronizes memory, so workers observe the value. *)
let enabled_flag = ref true

let set_enabled b = enabled_flag := b

let enabled () = !enabled_flag

type 'a t = {
  name : string;
  cap : int;
  key : (string, 'a) Hashtbl.t Domain.DLS.key;
}

(* Clear hooks for the calling domain, one per table (used by tests to
   reset between differential rounds). Registered at table creation,
   which happens at module-initialization time in the main domain. *)
let clearers : (unit -> unit) list ref = ref []

let create ~name ~cap =
  (* ac3-lint: allow D008 — see the table-type note above *)
  let key = Domain.DLS.new_key (fun () -> Hashtbl.create 256) in
  let t = { name; cap; key } in
  (* ac3-lint: allow D008 — clear hook for the calling domain's table *)
  clearers := (fun () -> Hashtbl.reset (Domain.DLS.get key)) :: !clearers;
  t

(* ac3-lint: allow D008 — reads the calling domain's own table *)
let table t = Domain.DLS.get t.key

let memo t k f =
  if not !enabled_flag then f ()
  else
    let tbl = table t in
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None ->
        let v = f () in
        if Hashtbl.length tbl >= t.cap then Hashtbl.reset tbl;
        Hashtbl.replace tbl k v;
        v

let clear_all () = List.iter (fun f -> f ()) !clearers
