(** Observability context: one metrics registry plus one span recorder,
    sharing an enable flag and a virtual clock.

    A context is carried by each {e universe} (simulation instance);
    layered components pull instruments out of it at creation. A
    context created with [~enabled:false] makes every instrument inert,
    which is how bench E14 measures instrumentation overhead without
    rebuilding. *)

type t = { metrics : Metrics.t; spans : Span.t }

(** [create ~clock ()] builds an enabled context whose span timestamps
    come from [clock] (virtual seconds). *)
val create : ?enabled:bool -> clock:(unit -> float) -> unit -> t

val is_enabled : t -> bool

(** [{"metrics": ..., "trace": ...}] — both parts schema-stable. *)
val to_json : t -> Ac3_crypto.Codec.Json.t
