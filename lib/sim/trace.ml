(* Structured event traces for experiments.

   A trace is an append-only log of (virtual time, event, attributes)
   records. Experiments use traces to measure protocol phase durations
   (e.g. the deployment and redemption phases of Figures 8 and 9).

   Records are stored in arrival order in a growable array, so the hot
   lookup of long chaos runs stays cheap: [time_of] is a forward scan
   that stops at the first match (O(position)). *)

type 'e record = { time : float; event : 'e; attrs : (string * string) list }

type 'e t = { mutable arr : 'e record array; mutable count : int }

let create () = { arr = [||]; count = 0 }

let record t ~time ?(attrs = []) event =
  let r = { time; event; attrs } in
  if t.count = Array.length t.arr then begin
    let grown = Array.make (max 16 (2 * Array.length t.arr)) r in
    Array.blit t.arr 0 grown 0 t.count;
    t.arr <- grown
  end;
  t.arr.(t.count) <- r;
  t.count <- t.count + 1

let records t = Array.to_list (Array.sub t.arr 0 t.count)

let time_of t event =
  let rec go i =
    if i >= t.count then None
    else if t.arr.(i).event = event then Some t.arr.(i).time
    else go (i + 1)
  in
  go 0

let pp pp_event ppf t =
  for i = 0 to t.count - 1 do
    let r = t.arr.(i) in
    Fmt.pf ppf "%10.3f  %a" r.time pp_event r.event;
    List.iter (fun (k, v) -> Fmt.pf ppf " %s=%s" k v) r.attrs;
    Fmt.pf ppf "@."
  done
