(** Shared experiment-runner layer.

    Every consumer of the engine — the scenario library, the benchmark
    suite, the CLI — needs the same scaffolding: scatter node identifiers,
    split them into correct and Byzantine populations, build a network,
    drive it, and collect rounds / delivery counts / outputs into a
    summary. This module is the single copy of that scaffolding.

    {!Make.execute} covers the common shapes (run to halt, run until a
    predicate, plus optional settle rounds). Experiments that drive rounds
    by hand — dynamic-membership loops, stimulus-driven churn — build the
    network with {!Make.create}, loop with [Net.step_round] themselves, and
    snapshot the result with {!Make.collect}. *)

open Ubpa_util
open Ubpa_sim

val make_ids : seed:int64 -> int -> Node_id.t list
(** [n] well-spread node identifiers (deterministic in [seed]). *)

val max_f : int -> int
(** Largest [f] with [n > 3f]. *)

val split_population :
  seed:int64 -> n_correct:int -> n_byz:int -> Node_id.t list * Node_id.t list
(** One scattered id population, first [n_correct] ids correct, the rest
    Byzantine. *)

module Make (P : Protocol.S) : sig
  module Net : module type of Network.Make (P)

  type finished =
    [ `All_halted
    | `Max_rounds_reached of Node_id.t list
      (** Carries the correct nodes that never halted. *)
    | `No_correct_nodes
    | `Stopped ]

  type outcome = {
    finished : finished;
    rounds : int;  (** Rounds executed. *)
    delivered_msgs : int;  (** Deduplicated deliveries, whole run. *)
    outputs : (Node_id.t * P.output) list;
        (** Correct nodes that produced an output, with their latest. *)
    reports : Net.node_report list;
    metrics : Metrics.t;
    net : Net.t;  (** The network itself, for ad-hoc inspection. *)
  }

  val create :
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
    Net.t
  (** [Net.create], re-exported so hand-driven experiments need only this
      module. *)

  val collect : Net.t -> finished:finished -> outcome
  (** Snapshot a (finished) network into an {!outcome}. *)

  val observations : Net.t -> P.output Ubpa_monitor.node_obs list
  (** The per-node snapshot {!Ubpa_monitor.observe} expects, derived from
      [Net.reports]. *)

  val observe : P.output Ubpa_monitor.t -> Net.t -> unit
  (** Feed the network's current state to a monitor — what hand-driven
      round loops call after each [Net.step_round]. *)

  val execute :
    ?delivery:Delivery.impl ->
    ?wire_accounting:bool ->
    ?seed:int64 ->
    ?faults:Ubpa_faults.plan ->
    ?trace:Trace.t ->
    ?classify:(P.message -> string) ->
    ?stimulus:(round:int -> Node_id.t -> P.stimulus list) ->
    ?max_rounds:int ->
    ?stop:(Net.t -> bool) ->
    ?settle:int ->
    ?monitor:P.output Ubpa_monitor.t ->
    correct:(Node_id.t * P.input) list ->
    byzantine:(Node_id.t * P.message Strategy.t) list ->
    unit ->
    outcome
  (** Build, run, collect. Without [stop], runs until every correct node
      halts ([Net.run]); with [stop], until the predicate holds
      ([Net.run_until]). [settle] (default 0) executes that many extra
      rounds after the run ends — e.g. to let relay properties propagate —
      before collecting. [faults] is handed to [Net.create]. [monitor]
      switches to a hand-driven loop with the same semantics that feeds
      the monitor after every round (settle rounds included) and
      subscribes it to the trace — an enabled trace is created on the
      caller's behalf if none was supplied, so event-based invariants
      always see the run. *)
end
