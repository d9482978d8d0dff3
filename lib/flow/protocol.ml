(* The protocol enum shared by the model checker, the load workload and
   the CLI, its one name table, and each family's guards (documented in
   the interface). *)

type t = Nolan | Herlihy | Ac3wn

let names = [ ("nolan", Nolan); ("herlihy", Herlihy); ("ac3wn", Ac3wn) ]

let all = List.map snd names

let name p = fst (List.find (fun (_, q) -> q = p) names)

let of_string s = List.assoc_opt s names

let family = function Nolan | Herlihy -> Flow.Single_leader | Ac3wn -> Flow.Witness

type decision = Undecided | Commit | Abort

module Single_leader = struct
  let deploy ~leader ~inputs_published = leader || inputs_published

  let redeem ~knows_secret ~leader ~all_published = knows_secret && ((not leader) || all_published)

  let refund ~expired = expired
end

module Witness = struct
  let deploy decision = decision = Undecided

  let redeem decision = decision = Commit

  let refund decision = decision = Abort

  let commit decision ~all_published = decision = Undecided && all_published

  let abort decision ~abort_requested = decision = Undecided && abort_requested
end
