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

type event =
  | Start
  | Completed
  | Abort_requested
  | Deploy of int
  | Redeem of int
  | Refund of int
  | Learned_secret of string
  | Signed of decision
  | Scw_deployed
  | Scw_confirmed
  | Authorize_submitted of decision
  | Decision_confirmed of decision
  | Fault of string

(* The settlement each decision authorizes, as the word AC3TW's
   signatures and SCw's authorize_redeem/authorize_refund calls carry. *)
let settlement = function Commit -> "redeem" | Abort -> "refund" | Undecided -> "undecided"

let pp_event ppf = function
  | Start -> Fmt.string ppf "start"
  | Completed -> Fmt.string ppf "completed"
  | Abort_requested -> Fmt.string ppf "abort_requested"
  | Deploy i -> Fmt.pf ppf "deploy:%d" i
  | Redeem i -> Fmt.pf ppf "redeem:%d" i
  | Refund i -> Fmt.pf ppf "refund:%d" i
  | Learned_secret pk -> Fmt.pf ppf "learned_secret:%s" pk
  | Signed d -> Fmt.pf ppf "%s_signed" (settlement d)
  | Scw_deployed -> Fmt.string ppf "scw_deployed"
  | Scw_confirmed -> Fmt.string ppf "scw_confirmed"
  | Authorize_submitted d -> Fmt.pf ppf "authorize_%s_submitted" (settlement d)
  | Decision_confirmed d -> Fmt.pf ppf "decision_confirmed:authorize_%s" (settlement d)
  | Fault kind -> Fmt.pf ppf "chaos:%s" kind

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
