(** Standalone parallel-consensus protocol: a {!Ubpa_sim.Protocol.S}
    wrapper over {!Parallel_consensus_core} (Algorithm 5, Theorem
    "parCon").

    Each node contributes a set of [(identifier, value)] input pairs — not
    necessarily the same set at every node — and all correct nodes output a
    common set of pairs: pairs held by every correct node are guaranteed to
    appear; identifiers held by no correct node are guaranteed not to. *)

module Make (V : Value.S) : sig
  module Core : module type of Parallel_consensus_core.Make (V)

  include
    Ubpa_sim.Protocol.S
      with type input = (int * V.t) list
       and type stimulus = Ubpa_sim.Protocol.No_stimulus.t
       and type output = (int * V.t) list
       and type message = Core.message
end
