(** Compile a fault plan into scheduled events on a live universe.

    Fault times are interpreted relative to the virtual time at which
    [install] runs (protocol start). Party indexes are taken modulo the
    participant count; faults naming chains the universe lacks are
    skipped. Every firing records a [Fault kind] event in the universe
    trace. *)

val install :
  universe:Ac3_core.Universe.t -> participants:Ac3_core.Participant.t list -> Plan.t -> unit
