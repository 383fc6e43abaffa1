(** Networked runtime vs lockstep simulator, as one verdict.

    The runtime ({!Ubpa_runtime.Runner}) claims trace equivalence with
    the simulator on fault-free runs and graceful degradation under a
    benign fault plan; this module is where both claims are checked.
    {!Make.run} runs the protocol over the wire (domains or socket
    transport) and replays the recorded delivery schedule through the
    oracle. On an empty plan it also runs a fresh simulator on the same
    population and compares decisions, decide rounds, trace events and
    wire accounting across all three; under a plan it gates on the
    delivered-schedule oracle, the safety monitors and the nodes outside
    the plan. The CLI ([ubpa run]) and the bench's RT experiments read
    this verdict through the protocol table [Ubpa_scenarios.Runtime_runs];
    the differential tests read it directly. *)

open Ubpa_util
open Ubpa_sim

type check = {
  c_name : string;
      (** Fault-free: "oracle-replay", "decisions", "decide-rounds",
          "rounds", "trace", "wire". Under a plan: "oracle-replay",
          "crash-view", "monitors", "survivor-agreement",
          "survivors-decide". *)
  c_ok : bool;
  c_detail : string;  (** Human-readable; "" when [c_ok]. *)
}

val passed : check list -> string -> bool
(** [passed checks name]: the check called [name] is present and passed. *)

val all_agree : ('a -> 'a -> bool) -> 'a list -> bool
(** [all_agree eq xs] holds when [eq] holds for every pair of elements of
    [xs]. Consistency relations such as reliable broadcast's are not
    transitive, so comparing neighbours is not enough. *)

module Make (P : Protocol.S) : sig
  module RT : module type of Ubpa_runtime.Runner.Make (P)
  module H : module type of Harness.Make (P)

  type verdict = {
    v_run : RT.run;
    v_oracle : RT.Oracle.outcome;
        (** Exact replay on an empty plan, delivered-mode otherwise. *)
    v_survivors : Node_id.t list;
        (** Nodes outside the plan ({!Ubpa_faults.victims}), ascending:
            every node when the plan is empty. *)
    v_checks : check list;
    v_ok : bool;  (** Every check passed. *)
    v_sim : H.outcome option;
        (** The fresh simulator run; fault-free runs only. *)
    v_run_ms : float;  (** Wall time of the networked run alone. *)
  }

  val run :
    ?agree:(P.output -> P.output -> bool) ->
    ?transport:RT.transport ->
    ?round_ms:float ->
    ?max_rounds:int ->
    ?faults:Ubpa_faults.plan ->
    ?fault_seed:int64 ->
    ?dead_after:int ->
    correct:(Node_id.t * P.input) list ->
    unit ->
    (verdict, string) result
  (** [Error] only when the networked run itself fails (bad population
      or plan, node crash); an inequivalence or a violation is a failed
      check, not an error.

      With [faults] empty (the default) the checks are exact lockstep
      equivalence with a fresh simulator run, outputs compared
      structurally. Otherwise they are graceful degradation: the
      delivered schedule must replay clean, the oracle's missing set must
      match the crash ledger, the safety monitors must stay green with
      every plan victim excused (a node with a benign fault counts
      against f, as in the simulator's chaos harness), and the nodes
      outside the plan must all decide and pairwise [agree]. [agree]
      (default structural equality) is both the monitor's agreement
      relation and the survivor comparison; for protocols whose outputs
      are streams (reliable broadcast), pass the consistency relation. A
      plan beyond the protocol's fault budget is {e expected} to fail one
      of these checks: the verdict reports it, the caller decides whether
      that was the point. The other optional arguments are
      {!Ubpa_runtime.Runner.Make.run}'s. *)
end
