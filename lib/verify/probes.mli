(** Canned {!State_machine.spec}s for the repo's contract code.

    Each spec pairs a contract with a probe set that covers every
    (function, caller, time-region) combination that can matter to it:
    correct and wrong secrets, calls before and after the timelock
    boundary, and calls from the sender, the recipient and a stranger.
    Times are relative to a deployment at t=0. Each builder creates
    its identities when called, at MSS height 1 (two signatures each),
    so linking this module generates no key. *)

open Ac3_chain

(** The HTLC of Nolan/Herlihy: hashlock redemption, timelock refund.
    [timelock] defaults to 100.0; probes straddle it. [max_nodes]
    bounds the S-pass exploration (default 256); exceeding it yields
    [S005-truncated]. *)
val htlc : ?deposit:Amount.t -> ?timelock:float -> ?max_nodes:int -> unit -> State_machine.spec

(** The AC3TW swap contract: redemption and refund are Trent's
    signatures over (ms(D), RD) / (ms(D), RF); probes present the right
    signature, the opposite decision's signature, and garbage. *)
val centralized : ?deposit:Amount.t -> ?max_nodes:int -> unit -> State_machine.spec

(** The AC3WN witness contract SCw over a minimal two-party graph.
    Probes exercise [authorize_refund] plus malformed
    [authorize_redeem] attempts (valid redeem evidence requires live
    chains and is covered by the simulator tests); the refund decision
    alone suffices to check absorption, exclusivity and the absence of
    stuck states. *)
val witness : ?max_nodes:int -> unit -> State_machine.spec
