(** Standalone rotor-coordinator protocol (Algorithm 2).

    Selects one coordinator per round from a candidate set maintained with
    reliable-broadcast-style echoes, terminating as soon as a coordinator
    repeats. Theorem "rc" of the paper: for [n > 3f] every correct node
    terminates within [O(n)] rounds and there is a {e good round} — a round
    in which every correct node selects the same, correct coordinator —
    whose opinion every correct node then accepts.

    Each node carries a fixed opinion (its input); the consensus algorithms
    embed {!Rotor_core} directly to use evolving opinions. *)

open Ubpa_util

module Make (V : Value.S) : sig
  type output = {
    selections : (int * Node_id.t) list;
        (** (rotor round index, coordinator) pairs, oldest first. *)
    accepted_opinions : (int * Node_id.t * V.t) list;
        (** (rotor round index of the coordinator, coordinator, opinion)
            accepted one round after each selection. *)
    terminated_round : int;  (** Simulator round of the break. *)
  }

  type message =
    | Init
    | Echo of Node_id.t
    | Opinion of V.t

  include
    Ubpa_sim.Protocol.S
      with type input = V.t
       and type stimulus = Ubpa_sim.Protocol.No_stimulus.t
       and type output := output
       and type message := message
end
