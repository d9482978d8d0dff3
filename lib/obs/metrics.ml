(* Deterministic metrics registry.

   Instruments live in a hashtable keyed by (name, sorted labels); every
   read-out path (JSON, pp, merge) sorts keys first, so output order is
   a function of contents alone. The [on] flag is copied into each
   instrument at creation: a disabled registry's instruments are inert
   and cost one branch per operation. *)

module Json = Ac3_crypto.Codec.Json

type key = { name : string; labels : (string * string) list (* sorted by label key *) }

type counter = { mutable c : int; c_on : bool }

type gauge = { mutable g : float; mutable g_set : bool; g_on : bool }

type histogram = {
  h_lo : float;
  h_hi : float;
  width : float;
  counts : int array;
  mutable underflow : int;
  mutable overflow : int;
  mutable nans : int;
  mutable sum : float;
  mutable n : int;
  h_on : bool;
}

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { tbl : (key, instrument) Hashtbl.t; on : bool }

let create ?(enabled = true) () = { tbl = Hashtbl.create 64; on = enabled }

let is_enabled t = t.on

let size t = Hashtbl.length t.tbl

let key name labels =
  { name; labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels }

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let conflict k found want =
  invalid_arg
    (Printf.sprintf "Metrics: %s is registered as a %s, not a %s" k.name (kind_name found) want)

let counter t ?(labels = []) name =
  let k = key name labels in
  match Hashtbl.find_opt t.tbl k with
  | Some (Counter c) -> c
  | Some other -> conflict k other "counter"
  | None ->
      let c = { c = 0; c_on = t.on } in
      Hashtbl.replace t.tbl k (Counter c);
      c

let incr c = if c.c_on then c.c <- c.c + 1

let add c n =
  if n < 0 then invalid_arg "Metrics.add: negative increment";
  if c.c_on then c.c <- c.c + n

let counter_value c = c.c

let gauge t ?(labels = []) name =
  let k = key name labels in
  match Hashtbl.find_opt t.tbl k with
  | Some (Gauge g) -> g
  | Some other -> conflict k other "gauge"
  | None ->
      let g = { g = 0.0; g_set = false; g_on = t.on } in
      Hashtbl.replace t.tbl k (Gauge g);
      g

let set g v =
  if g.g_on then begin
    g.g <- v;
    g.g_set <- true
  end

let gauge_value g = if g.g_set then Some g.g else None

let same_layout a ~lo ~hi ~buckets =
  a.h_lo = lo && a.h_hi = hi && Array.length a.counts = buckets

let histogram t ?(labels = []) ~lo ~hi ~buckets name =
  if buckets <= 0 then invalid_arg "Metrics.histogram: buckets must be positive";
  if not (hi > lo) then invalid_arg "Metrics.histogram: hi must exceed lo";
  let k = key name labels in
  match Hashtbl.find_opt t.tbl k with
  | Some (Histogram h) ->
      if not (same_layout h ~lo ~hi ~buckets) then
        invalid_arg (Printf.sprintf "Metrics: histogram %s re-registered with a different layout" name);
      h
  | Some other -> conflict k other "histogram"
  | None ->
      let h =
        {
          h_lo = lo;
          h_hi = hi;
          width = (hi -. lo) /. float_of_int buckets;
          counts = Array.make buckets 0;
          underflow = 0;
          overflow = 0;
          nans = 0;
          sum = 0.0;
          n = 0;
          h_on = t.on;
        }
      in
      Hashtbl.replace t.tbl k (Histogram h);
      h

(* Top bucket closed: x = hi lands in the last bucket instead of being
   dropped, which a half-open [lo, hi) bucketing would do to the
   largest possible sample. *)
let observe h x =
  if h.h_on then begin
    if Float.is_nan x then h.nans <- h.nans + 1
    else if x < h.h_lo then h.underflow <- h.underflow + 1
    else if x > h.h_hi then h.overflow <- h.overflow + 1
    else begin
      let b = int_of_float ((x -. h.h_lo) /. h.width) in
      let b = min (Array.length h.counts - 1) (max 0 b) in
      h.counts.(b) <- h.counts.(b) + 1;
      h.sum <- h.sum +. x;
      h.n <- h.n + 1
    end
  end

type hist_snapshot = {
  lo : float;
  hi : float;
  counts : int array;
  underflow : int;
  overflow : int;
  nans : int;
  sum : float;
  count : int;
}

let hist_snapshot h =
  {
    lo = h.h_lo;
    hi = h.h_hi;
    counts = Array.copy h.counts;
    underflow = h.underflow;
    overflow = h.overflow;
    nans = h.nans;
    sum = h.sum;
    count = h.n;
  }

(* --- Merge ------------------------------------------------------------ *)

let compare_label (k1, v1) (k2, v2) =
  match String.compare k1 k2 with 0 -> String.compare v1 v2 | c -> c

let compare_key a b =
  match String.compare a.name b.name with
  | 0 -> List.compare compare_label a.labels b.labels
  | c -> c

let sorted_items t =
  (* ac3-lint: allow D001 — unique (name, labels) keys; sorted by compare_key below *)
  let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl [] in
  List.sort (fun (a, _) (b, _) -> compare_key a b) items

(* Fold [src] into [into], visiting src's instruments in sorted key
   order so float accumulation (histogram sums) is order-independent of
   hashtable internals. *)
let merge_into ~into src =
  List.iter
    (fun (k, inst) ->
      match inst with
      | Counter c -> add (counter into ~labels:k.labels k.name) c.c
      | Gauge g -> if g.g_set then set (gauge into ~labels:k.labels k.name) g.g
      | Histogram h ->
          let dst =
            histogram into ~labels:k.labels ~lo:h.h_lo ~hi:h.h_hi
              ~buckets:(Array.length h.counts) k.name
          in
          if dst.h_on then begin
            Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) h.counts;
            dst.underflow <- dst.underflow + h.underflow;
            dst.overflow <- dst.overflow + h.overflow;
            dst.nans <- dst.nans + h.nans;
            dst.sum <- dst.sum +. h.sum;
            dst.n <- dst.n + h.n
          end)
    (sorted_items src)

(* --- Rendering -------------------------------------------------------- *)

let label_string labels =
  if labels = [] then ""
  else
    "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels) ^ "}"

let instrument_json = function
  | Counter c -> Json.Obj [ ("type", Json.String "counter"); ("value", Json.Int c.c) ]
  | Gauge g ->
      Json.Obj
        [
          ("type", Json.String "gauge");
          ("value", if g.g_set then Json.Float g.g else Json.Null);
        ]
  | Histogram h ->
      Json.Obj
        [
          ("type", Json.String "histogram");
          ("lo", Json.Float h.h_lo);
          ("hi", Json.Float h.h_hi);
          ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.counts)));
          ("underflow", Json.Int h.underflow);
          ("overflow", Json.Int h.overflow);
          ("nans", Json.Int h.nans);
          ("sum", Json.Float h.sum);
          ("count", Json.Int h.n);
        ]

let to_json t =
  Json.Obj
    (List.map
       (fun (k, inst) -> (k.name ^ label_string k.labels, instrument_json inst))
       (sorted_items t))

let pp ppf t =
  List.iter
    (fun (k, inst) ->
      let id = k.name ^ label_string k.labels in
      match inst with
      | Counter c -> Fmt.pf ppf "%-52s counter  %d@." id c.c
      | Gauge g ->
          Fmt.pf ppf "%-52s gauge    %s@." id (if g.g_set then Fmt.str "%g" g.g else "-")
      | Histogram h ->
          Fmt.pf ppf "%-52s hist     n=%d sum=%g lo=%g hi=%g under=%d over=%d nans=%d [%s]@." id
            h.n h.sum h.h_lo h.h_hi h.underflow h.overflow h.nans
            (String.concat " " (Array.to_list (Array.map string_of_int h.counts))))
    (sorted_items t)
