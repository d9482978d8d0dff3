(* The protocol enum shared by the model checker, the load workload and
   the CLI, and its one name table. *)

type t = Nolan | Herlihy | Ac3wn

let names = [ ("nolan", Nolan); ("herlihy", Herlihy); ("ac3wn", Ac3wn) ]

let all = List.map snd names

let name p = fst (List.find (fun (_, q) -> q = p) names)

let of_string s = List.assoc_opt s names

let family = function Nolan | Herlihy -> Flow.Single_leader | Ac3wn -> Flow.Witness
