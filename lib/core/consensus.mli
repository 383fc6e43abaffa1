(** Standalone early-terminating consensus protocol (Algorithm 3,
    Theorem "earlyCon").

    Every correct node starts with an input value; for [n > 3f] all correct
    nodes terminate with a common output within [O(f)] phases (five rounds
    each, after two initialization rounds), and if all correct inputs agree
    the nodes decide that value at the end of the very first phase.

    This is a thin {!Ubpa_sim.Protocol.S} wrapper over
    {!Consensus_core.Make}; byzantine strategies can forge any
    {!Consensus_core.Make.message}. *)


module Make (V : Value.S) : sig
  module Core : module type of Consensus_core.Make (V)

  include
    Ubpa_sim.Protocol.S
      with type input = V.t
       and type stimulus = Ubpa_sim.Protocol.No_stimulus.t
       and type output = V.t
       and type message = Core.message

  val decided_phase : state -> int option
  (** Phase in which this node decided, if it has. *)

  val current_opinion : state -> V.t

  val member_count : state -> int
  (** The node's fixed [n_v], 0 before round 3. *)

  val copy_state : state -> state
  (** Independent snapshot; stepping the copy never affects the original.
      Used by the bounded checker to branch a configuration. *)

  val state_key : state -> string
  (** Canonical id-space fingerprint ({!Core.key} plus the decided phase),
      as binary bytes; equal keys mean equal behavior on equal future
      inboxes. *)
end
