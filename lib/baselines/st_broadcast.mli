(** Srikanth–Toueg reliable broadcast with a {e known} fault bound [f]
    (the classic algorithm the paper's Algorithm 1 generalizes).

    Identical message pattern to the unknown-participant version, but the
    thresholds are the absolute counts [f + 1] (echo relay) and [2f + 1]
    (accept) instead of the relative [n_v/3] and [2n_v/3]. Used as the
    baseline in the message/round-complexity comparison (the paper claims
    complexity is unaffected by removing the knowledge of [n] and [f]). *)

open Ubpa_util
open Unknown_ba

module Make (V : Value.S) : sig
  type accepted = { payload : V.t; sender : Node_id.t; accepted_round : int }

  type input = { payload : V.t option; f : int }

  type message = Payload of V.t | Present | Echo of V.t * Node_id.t

  include
    Ubpa_sim.Protocol.S
      with type input := input
       and type stimulus = Ubpa_sim.Protocol.No_stimulus.t
       and type output = accepted list
       and type message := message
end
