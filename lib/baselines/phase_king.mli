(** Phase-king consensus with {e known} [n], [f], and participant list
    (Berman, Garay, Perry — the paper's \cite{king} baseline).

    [f + 1] phases of three rounds each: value exchange (threshold
    [n - f]), proposal exchange (threshold [f + 1]), and the king round in
    which the [k]-th smallest identifier dictates the value of every node
    that saw fewer than [n - f] proposals. Requires consecutive-enough
    knowledge the id-only model denies: the full membership list, [n], and
    [f]. Decides after [3(f + 1) + 1] rounds. *)

open Ubpa_util
open Unknown_ba

module Make (V : Value.S) : sig
  type input = { value : V.t; members : Node_id.t list; f : int }

  type message = Value of V.t | Propose of V.t | King of V.t

  include
    Ubpa_sim.Protocol.S
      with type input := input
       and type stimulus = Ubpa_sim.Protocol.No_stimulus.t
       and type output = V.t
       and type message := message
end
