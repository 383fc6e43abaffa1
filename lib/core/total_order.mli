(** Total ordering of events in a dynamic network (Algorithm 6).

    Every logical round [r], each participant broadcasts the events it
    witnessed, collects the events of the previous round into input pairs
    [(origin, event)], and starts a fresh parallel-consensus group tagged
    [r] running "with respect to" its current membership view [S]. A round
    [r'] becomes {e final} once [r - r' > 5·|S^{r'}|/2 + 2] — enough rounds
    for its group to have terminated everywhere — and the chain output is
    the concatenation of the final groups' outputs in round order.

    Guarantees (for [n > 3f] in every round): {e chain-prefix} — any two
    correct participants' chains are prefixes of one another — and
    {e chain-growth} — events keep being appended as long as correct nodes
    submit them.

    Membership: nodes join by broadcasting [present], learn the current
    logical round from the majority of [(ack, r)] replies, and leave by
    broadcasting [absent] (finishing their outstanding groups first).
    Genesis nodes — the initial population — know that the logical clock
    starts at 0 and skip the ack handshake. *)

open Ubpa_util

module Make (V : Value.S) : sig
  module Pc : module type of Parallel_consensus_core.Make (V)

  type chain_entry = {
    group : int;  (** Logical round whose group agreed on the event. *)
    origin : Node_id.t;  (** Node that witnessed the event. *)
    event : V.t;
  }

  type chain_output = {
    logical_round : int;
    frontier : int;  (** Largest round [R] with every round [<= R] final. *)
    chain : chain_entry list;  (** Ordered, oldest first. *)
  }

  type role = Genesis | Joiner

  type stimulus_view = Witness of V.t | Leave

  type message =
    | Present
    | Ack of int
    | Absent
    | Event of V.t * int  (** [(m, r)]: event [m] witnessed in round [r]. *)
    | Group of int * Pc.message

  include
    Ubpa_sim.Protocol.S
      with type input = role
       and type stimulus = stimulus_view
       and type output = chain_output
       and type message := message

  val membership : state -> Node_id.t list
  (** Current [S], ascending (tests). *)

  val logical_round : state -> int
end
