(* Protocol participants: an identity with wallets on the chains it
   touches, and a crash flag.

   A crashed participant stops executing protocol steps (its poll events
   do nothing) until it recovers — the failure model of the paper's
   Sec 1, where a crashed party misses its redemption window. *)

module Keys = Ac3_crypto.Keys
open Ac3_chain

type t = {
  identity : Keys.t;
  mutable wallets : (string * Wallet.t) list; (* by chain id *)
  mutable crashed : bool;
  universe : Universe.t;
}

let create universe ~identity = { identity; wallets = []; crashed = false; universe }

let identity t = t.identity

let public t = Keys.public t.identity

let name t = Keys.label t.identity

let is_crashed t = t.crashed

let crash t = t.crashed <- true

let recover t = t.crashed <- false

let rec find_wallet chain_id = function
  | (id, w) :: rest -> if String.equal id chain_id then w else find_wallet chain_id rest
  | [] -> raise Not_found

let wallet t chain_id =
  match find_wallet chain_id t.wallets with
  | w -> w
  | exception Not_found ->
      let w = Wallet.create ~identity:t.identity ~node:(Universe.gateway t.universe chain_id) in
      t.wallets <- (chain_id, w) :: t.wallets;
      w

let balance_on t chain_id = Wallet.balance (wallet t chain_id)
