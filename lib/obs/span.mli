(** Hierarchical span tracing over the simulator's virtual clock.

    A span is a named [\[start, stop\]] interval in sim-time with
    attributes and children. Spans either bracket live execution
    ({!enter}/{!exit}, {!with_span}) or are derived after the fact from
    an existing {!Ac3_sim.Trace} event log ({!of_trace}) — the phase
    spans of the protocol runs come from the trace events the protocols
    already record, so enabling tracing cannot perturb a run.

    Timestamps come from the [clock] passed at creation (virtual
    seconds), never from the wall clock, so span trees are bit-stable
    across hosts and [--jobs] values. *)

type t

type span

val create : ?enabled:bool -> clock:(unit -> float) -> unit -> t

(** [detach t] is a recorder with [t]'s spans whose clock is frozen at
    [t]'s current time. It holds nothing [t]'s clock closes over (a
    universe's engine, say), so a finished run's recorder can outlive
    its universe. Record nothing into [t] afterwards: the two share
    their spans but not the roots or the open stack added later. *)
val detach : t -> t

(** [enter t name] opens a span starting now. Without [?parent] the span
    nests under the innermost open {!enter}ed span, or becomes a root. *)
val enter : t -> ?parent:span -> ?attrs:(string * string) list -> string -> span

(** Close a span at the current clock. Closing a span that is not the
    innermost open one also unwinds the spans opened inside it. *)
val exit : t -> span -> unit

val with_span : t -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a

(** [add t ~name ~start ~stop] records a completed span with explicit
    times (used for derived phases). *)
val add :
  t -> ?parent:span -> ?attrs:(string * string) list -> name:string -> start:float -> stop:float ->
  unit -> span

(** A phase of a protocol run, recognized in a trace by predicates over
    its events: the phase starts at the first record whose event
    satisfies [opens] and ends at the last record whose event satisfies
    [closes]. *)
type 'e phase = { phase : string; opens : 'e -> bool; closes : 'e -> bool }

(** [windows ~phases trace] is the [(phase, start, stop)] window of each
    recognizable phase (both endpoints present, stop >= start), in the
    order given. *)
val windows : phases:'e phase list -> 'e Ac3_sim.Trace.t -> (string * float * float) list

(** [of_trace t ~phases trace] appends one span per {!windows} entry,
    in the order given. *)
val of_trace : t -> ?parent:span -> phases:'e phase list -> 'e Ac3_sim.Trace.t -> unit

(** [import ~into src] appends [src]'s root spans (in creation order)
    as roots of [into]. Importing per-run recorders in a fixed run
    order is the sweep-merge discipline; the spans are shared, not
    copied, so only import recorders that are done recording. *)
val import : into:t -> t -> unit

(** Root spans in creation order. *)
val roots : t -> span list

val span_name : span -> string

(** [None] while the span is still open. *)
val duration : span -> float option

(** Stable rendering: [{"spans": [...]}], each span
    [{"name","start","end","attrs","children"}] in creation order. Open
    spans render with ["end": null]. *)
val to_json : t -> Ac3_crypto.Codec.Json.t

(** Indented tree, one span per line. *)
val pp : Format.formatter -> t -> unit
