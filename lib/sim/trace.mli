(** Append-only structured event traces for experiments, over any event
    type ['e]. Events are compared with structural equality, so ['e]
    must not hold functions. *)

type 'e record = { time : float; event : 'e; attrs : (string * string) list }

type 'e t

val create : unit -> 'e t

(** [record t ~time ?attrs event] appends a record. *)
val record : 'e t -> time:float -> ?attrs:(string * string) list -> 'e -> unit

(** Records in chronological (insertion) order. *)
val records : 'e t -> 'e record list

(** Time of the first record carrying [event]. *)
val time_of : 'e t -> 'e -> float option

(** One record per line: time, the event by [pp_event], then its
    attributes as [key=value]. *)
val pp : (Format.formatter -> 'e -> unit) -> Format.formatter -> 'e t -> unit
