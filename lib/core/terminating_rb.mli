(** Terminating reliable broadcast (appendix of the paper).

    Unlike Algorithm 1, every correct node must {e terminate} with a common
    output: the sender's payload if the designated sender [s] is correct, a
    common (possibly empty, possibly Byzantine-supplied) opinion otherwise.
    The construction is the one from the paper's appendix: one exchange
    round fixes each node's opinion — the payload received directly from
    [s], or ⊥ — and the [O(f)]-round consensus of Algorithm 3 is run on
    those opinions. *)

open Ubpa_util

module Make (V : Value.S) : sig
  module Opt : module type of Value.Option (V)
  module Core : module type of Consensus_core.Make (Opt)

  type input = { sender : Node_id.t; payload : V.t option }
  (** [payload] is [Some m] iff this node is the designated sender [s]. *)

  type message =
    | Trb_payload of V.t  (** sender's round-1 broadcast *)
    | Trb_init  (** everyone else's round-1 presence message *)
    | Con of Core.message  (** embedded consensus traffic *)

  include
    Ubpa_sim.Protocol.S
      with type input := input
       and type stimulus = Ubpa_sim.Protocol.No_stimulus.t
       and type output = V.t option
       and type message := message
end
