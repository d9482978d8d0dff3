(* The atomicity oracle: did a chaos run preserve the paper's safety
   property?

   The oracle is deliberately weaker than Outcome.atomic: a crashed-
   forever participant may leave a contract Published (locked but
   recoverable by its timelock or by the witness decision), which is a
   liveness wound, not a safety one. What must NEVER happen is a mixed
   settlement — one deposit redeemed while another refunds — because
   then some participant paid and was not paid (Sec 3's "deposit lost").

   After reading the first outcome the oracle lets the universe run an
   extra absorption window and re-reads: any Redeemed or Refunded
   contract that changes status afterwards falsifies "terminal states
   are absorbing" (a reorg or a double-spend slipped through). The final
   verdict also carries the static verifier's view of the same graph so
   the runner can cross-check dynamic violations against predicted
   ones. *)

module Outcome = Ac3_core.Outcome
module Universe = Ac3_core.Universe
module Swap_template = Ac3_contract.Swap_template
module Diagnostic = Ac3_verify.Diagnostic

type verdict = {
  statuses : Swap_template.status array;  (** final, post-absorption *)
  atomic : bool;  (** strict all-or-nothing (Outcome.atomic) *)
  committed : bool;
  deposit_lost : bool;  (** mixed Redeemed/Refunded settlement *)
  settled : bool;  (** nothing left locked *)
  absorbing : bool;  (** no terminal status changed during absorption *)
  static_errors : Diagnostic.t list;  (** the verifier's predicted errors *)
  pass : bool;  (** [not deposit_lost && absorbing] *)
}

(* Extra virtual seconds run before the final outcome read. *)
let absorb_window = 240.0

(* Read the outcome, run [absorb_window] more virtual seconds, read it
   again. The universe is consumed: callers must not reuse it after. *)
let check ~universe ~graph ~contracts ~static_errors =
  let first = Outcome.evaluate universe ~graph ~contracts in
  let first_statuses = Outcome.statuses first in
  Universe.run_until universe (Universe.now universe +. absorb_window);
  let final = Outcome.evaluate universe ~graph ~contracts in
  let statuses = Outcome.statuses final in
  let absorbing =
    Array.for_all2
      (fun before after -> (not (Swap_template.terminal before)) || before = after)
      first_statuses statuses
  in
  let lost = Swap_template.mixed statuses in
  {
    statuses;
    atomic = Outcome.atomic final;
    committed = Outcome.committed final;
    deposit_lost = lost;
    settled = Outcome.settled final;
    absorbing;
    static_errors;
    pass = (not lost) && absorbing;
  }

let static_ok v = v.static_errors = []

let pp_statuses ppf statuses =
  Fmt.pf ppf "[%a]" (Fmt.array ~sep:Fmt.comma Outcome.pp_status) statuses

let pp ppf v =
  Fmt.pf ppf "@[<v>%s statuses=%a atomic=%b committed=%b settled=%b absorbing=%b%s static=%s@]"
    (if v.pass then "PASS" else "VIOLATION")
    pp_statuses v.statuses v.atomic v.committed v.settled v.absorbing
    (if v.deposit_lost then " DEPOSIT-LOST" else "")
    (if static_ok v then "clean" else "errors")
