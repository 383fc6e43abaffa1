(** The round kernel: one synchronous round of the correct nodes.

    The paper's model (docs/MODEL.md) is one synchronous round: a node
    receives what was sent to it in the previous round, computes, and
    sends. The simulator ({!Network}), the bounded checker, the replay
    oracle ({!Replay}) and the networked runtime all run that round
    here. The kernel owns the correct-node record, the one [P.step] call
    and the recording of its result, the ascending-id step loop, and the
    run loop. Callers pass values — an inbox reader, a step supplier, a
    send filter, an after-round hook — never a flag that names the
    caller; membership, fault decisions, routing through a delivery core
    and the Byzantine half of a round stay with them. *)

open Ubpa_util

module Make (P : Protocol.S) : sig
  type node = {
    id : Node_id.t;
    joined_at : int;
    mutable state : P.state;
    mutable first_output_round : int option;
        (** Round of the first [Deliver]/[Stop]. *)
    mutable last_output : P.output option;
    mutable halted_at : int option;
    mutable down_since : int option;
        (** [Some r] while a crash or leave is in effect (since round
            [r]): the node neither steps nor receives, and keeps its
            state. *)
  }

  val node : index:Interner.t -> round:int -> Node_id.t -> P.input -> node
  (** A node joining in [round], its state from [P.init]. *)

  val active : node -> bool
  (** Neither halted nor down. *)

  type t = {
    tr : Trace.t;
    mutable round : int;  (** The current round; the caller advances it. *)
    mutable nodes : node array;  (** Ascending id. *)
    mutable pending : P.message Envelope.t list;
        (** Sent this round, newest first: correct sends in step order,
            then the Byzantine ones — next round's traffic, reversed. *)
  }

  val create : ?trace:Trace.t -> node array -> t
  (** Round 0, nothing pending. *)

  val active_ids : t -> Node_id.t list
  (** Ascending. *)

  val find : t -> Node_id.t -> node option

  val collect : t -> (node -> 'a option) -> (Node_id.t * 'a) list
  (** [(id, x)] for each node [f] maps to [Some x], ascending. *)

  val take_pending : t -> P.message Envelope.t list
  (** The pending envelopes in delivery order; none remain pending. *)

  type step =
    P.state * (Envelope.dest * P.message) list * P.output Protocol.status

  val call :
    t ->
    node ->
    stim:P.stimulus list ->
    P.state ->
    inbox:(Node_id.t * P.message) list ->
    step
  (** The one [P.step] call, in round [t.round], from the given state:
      the node's own, or a copy the caller keeps apart. Records nothing. *)

  val apply :
    t -> node -> send:(node -> P.message Envelope.t -> bool) -> step -> unit
  (** Record a step: the new state; per send, in emit order, a [Send]
      event and a pending envelope if [send] keeps it (a filter that
      drops a send records why); then first and last output, the halt,
      and their [Output] or [Halt] event. *)

  val step :
    t ->
    inbox:(Node_id.t -> (Node_id.t * P.message) list) ->
    supply:(int -> node -> (Node_id.t * P.message) list -> step) ->
    send:(node -> P.message Envelope.t -> bool) ->
    unit
  (** Every active node in ascending id order: read its inbox, take its
      step from [supply] (given the node's position), {!apply} it.
      [supply] wraps {!call}, or returns a stored step. *)

  val send_byzantine : t -> P.message Envelope.t -> unit
  (** A [Byz_send] event; the envelope joins {!pending} last. *)

  val all_halted : t -> written_off:(node -> bool) -> bool
  (** Every node halted, or down and [written_off]. *)

  val run :
    t ->
    max_rounds:int ->
    until:(unit -> bool) ->
    step:(unit -> unit) ->
    after:(unit -> unit) ->
    [ `Done | `Max_rounds_reached of Node_id.t list ]
  (** [step] then [after], round after round, until [until] holds
      (checked before each round) or [t.round] reaches [max_rounds],
      reporting the nodes that have not halted (down ones included),
      ascending. *)
end
