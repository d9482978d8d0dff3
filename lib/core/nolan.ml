(* Nolan's two-party atomic swap (bitcointalk, 2013): the original
   hashlock/timelock protocol from the paper's introduction.

   Alice (the leader) locks X under h = H(s) on chain 1 with timelock t1;
   Bob, having verified SC1, locks Y under the same h on chain 2 with
   timelock t2 < t1; Alice redeems SC2 (revealing s); Bob redeems SC1
   with s before t1. This is exactly the single-leader protocol on the
   two-vertex graph, so the implementation delegates to {!Herlihy} — the
   timelock structure (leader's contract expires last) and the crash
   hazard are identical. *)

module Ac2t = Ac3_contract.Ac2t

type result = Herlihy.result

type handle = Herlihy.handle

(* The two-vertex case of {!Herlihy.launch}; any other graph is refused. *)
let launch universe ~graph ~participants ?hooks ?poll_interval () =
  match Ac2t.classify graph with
  | Ac2t.Simple_swap ->
      Herlihy.launch universe ~graph ~participants ?hooks ~obs_name:"nolan" ?poll_interval ()
  | shape -> Error (Fmt.str "graph (%a) is not a two-party swap" Ac2t.pp_shape shape)

let execute universe ~timeout ~graph ~participants ?hooks () =
  launch universe ~graph ~participants ?hooks ()
  |> Result.map (fun h -> List.hd (Driver.execute ~timeout [ h ]))
