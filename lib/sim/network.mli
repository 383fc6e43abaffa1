(** Synchronous round-based network engine.

    The engine realizes the paper's model: computation proceeds in rounds;
    messages sent in round [r] are delivered in round [r+1]; broadcasts reach
    every node present at delivery time (sender included); senders are
    authenticated; per-round duplicate (sender, payload) pairs are dropped.

    Membership may change between rounds ({!join_correct},
    {!join_byzantine}, {!remove_byzantine}, and protocol-driven halts), which
    is how the dynamic-network experiments of the paper are driven. A purely
    static run is simply one where everybody joins before round 1.

    Byzantine nodes are driven by {!Strategy.t} values. By default the
    adversary is {e rushing}: in each round it sees the messages correct
    nodes send in that very round before choosing its own. *)

open Ubpa_util

module Make (P : Protocol.S) : sig
  type t

  type node_report = {
    id : Node_id.t;
    joined_at : int;
    first_output_round : int option;
        (** Round of the first [Deliver]/[Stop]. *)
    last_output : P.output option;
    halted_at : int option;
    down_since : int option;
        (** [Some r] while an injected crash/leave from the fault plan is
            in effect (since round [r]); [None] for healthy nodes. *)
  }

  val create :
    ?rushing:bool ->
    ?delivery:Delivery.impl ->
    ?wire_accounting:bool ->
    ?seed:int64 ->
    ?faults:Ubpa_faults.plan ->
    ?trace:Trace.t ->
    ?classify:(P.message -> string) ->
    ?stimulus:(round:int -> Node_id.t -> P.stimulus list) ->
    correct:(Node_id.t * P.input) list ->
    byzantine:(Node_id.t * P.message Strategy.t) list ->
    unit ->
    t
  (** All listed nodes join in round 1. Identifiers must be distinct across
      both lists. [delivery] selects the delivery core: the default
      {!Delivery.Arena} feeds the round loop through lazy per-node inbox
      reads from one arena state kept across rounds; {!Delivery.Naive}
      keeps the seed engine's list-scan core — same results, slower — for
      differential testing and head-to-head benchmarks.
      [wire_accounting] (default [true]) controls the per-delivery
      {!Ubpa_obs.Wire} hook; switching it off leaves {!wire} empty and
      lets the arena core keep broadcasts O(1) instead of fanning out for
      the observer — the n ≈ 10,000 SCALE sweeps run with it off.
      [faults] (default {!Ubpa_faults.empty})
      injects benign faults into correct nodes at the delivery boundary:
      crashed/left nodes are absent from the present set (they neither
      step nor receive, state kept for recovery), send/receive omission,
      delay and per-envelope loss/duplication drop or re-deliver
      envelopes, and every injected fault is recorded as a {!Trace.Fault}
      event. The plan's random decisions come from a dedicated stream, so
      an empty plan is byte-identical to no plan. Each round draws from
      that stream in a fixed order that neither core influences, so a
      non-empty plan makes the same decisions on both:
      + loss, then duplication, over the pending envelopes in send order;
      + then, per present recipient in ascending id order, receive
        omission over its sender-sorted inbox, then delay over what
        survived;
      + then send omission, per send, as the step loop runs the correct
        nodes in ascending id order.

      A draw happens only where its probability is active for that
      envelope, node and round. *)

  (** {2 Dynamic membership} *)

  val join_correct : t -> Node_id.t -> P.input -> unit
  (** The node participates from the next executed round on. *)

  val join_byzantine : t -> Node_id.t -> P.message Strategy.t -> unit

  val remove_byzantine : t -> Node_id.t -> unit
  (** The adversary withdraws a faulty node before the next round. *)

  (** {2 Execution} *)

  val step_round : t -> unit
  (** Execute one synchronous round. *)

  val run :
    ?max_rounds:int ->
    t ->
    [ `All_halted | `Max_rounds_reached of Node_id.t list | `No_correct_nodes ]
  (** Step until every correct node halted. [max_rounds] (default 10_000)
      bounds non-terminating protocols; hitting it reports {e who}
      stalled — the correct nodes that never halted, ascending. Nodes the
      fault plan keeps down forever (crash-stop, leave without rejoin)
      are written off by the halt check but still listed as stalled. A
      network with no correct node — present or queued to join — returns
      [`No_correct_nodes] without stepping: "all correct nodes halted"
      would be vacuous, and since correct nodes are never removed and
      [run] admits no new joins, the condition cannot change mid-run. *)

  val run_until :
    ?max_rounds:int ->
    t ->
    stop:(t -> bool) ->
    [ `Stopped | `Max_rounds_reached of Node_id.t list ]
  (** Step until [stop] holds (checked after each round). *)

  val stalled : t -> Node_id.t list
  (** Correct nodes that have not halted, ascending — the
      [`Max_rounds_reached] payload. *)

  val has_correct : t -> bool
  (** A correct node is present or queued to join. *)

  (** {2 Observation} *)

  val round : t -> int
  (** Rounds executed so far (0 before the first {!step_round}). *)

  val metrics : t -> Metrics.t

  val wire : t -> Ubpa_obs.Wire.t
  (** Wire-level accounting: per-node / per-round / per-kind message and
      bit counters, recorded at the delivery cores' accept points
      (post-dedup, pre receive-omission — see {!Ubpa_obs.Wire}). Message
      sizes come from the protocol's [encoded_bits]; kinds from
      [classify] (["msg"] when none was given). *)

  val trace : t -> Trace.t

  val correct_ids : t -> Node_id.t list
  (** Every correct node that ever joined, ascending. *)

  val active_correct : t -> Node_id.t list
  (** Correct nodes present and not halted, ascending. *)

  val byzantine_ids : t -> Node_id.t list

  val report : t -> Node_id.t -> node_report
  (** Raises [Not_found] for unknown ids. *)

  val reports : t -> node_report list
  (** One report per correct node, ascending id. *)

  val outputs : t -> (Node_id.t * P.output) list
  (** Correct nodes that produced an output, with their latest output. *)

  val states : t -> (Node_id.t * P.state) list
  (** Every correct node's current protocol state, ascending id. Exposed
      for differential tests (engine vs the bounded checker's synthetic
      delivery) that compare terminal states byte for byte. *)

  val all_halted : t -> bool
end
