(** The three commitment protocols the checkers compare, with their one
    name table.

    The model checker ({!Ac3_model.Checker.protocol}) and the load
    workload ({!Ac3_load.Workload.protocol}) re-export {!t} through a
    type equation; every CLI enum and every printed protocol name comes
    from {!names}. *)

type t = Nolan | Herlihy | Ac3wn

(** [("nolan", Nolan); ("herlihy", Herlihy); ("ac3wn", Ac3wn)]: the name
    table, in declaration order. *)
val names : (string * t) list

(** Every protocol, in declaration order. *)
val all : t list

val name : t -> string

val of_string : string -> t option

(** The family the protocol settles by: Nolan and Herlihy release
    hashlocks through a single leader's secret, AC3WN through the
    witness decision. *)
val family : t -> Flow.profile
