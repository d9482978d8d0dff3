(** Observability context: one metrics registry plus one span recorder,
    sharing an enable flag and a virtual clock.

    A context is carried by each {e universe} (simulation instance);
    layered components pull instruments out of it at creation. A
    context created with [~enabled:false] makes every instrument inert,
    so a run whose metrics are discarded (shrinking) records nothing. *)

type t = { metrics : Metrics.t; spans : Span.t }

(** [create ~clock ()] builds an enabled context whose span timestamps
    come from [clock] (virtual seconds). *)
val create : ?enabled:bool -> clock:(unit -> float) -> unit -> t

val is_enabled : t -> bool

(** The same registry and spans, with the span clock frozen at its
    current reading ({!Span.detach}): a finished run's context no
    longer keeps its universe alive. *)
val detach : t -> t
