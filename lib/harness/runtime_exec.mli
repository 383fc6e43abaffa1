(** Networked runtime vs lockstep simulator, as one verdict.

    The runtime ({!Ubpa_runtime.Runner}) claims trace equivalence with
    the simulator; this module is where the claim is checked. One call
    runs the protocol three ways —

    + over the wire (domains or socket transport),
    + through the replay oracle on the recorded delivery schedule,
    + as a fresh simulator run on the same population —

    and compares decisions, decide rounds, trace events and wire
    accounting across all three. The CLI ([ubpa run]), the differential
    tests and the RT1 bench experiment all gate on the same {!Make.check}
    list rather than re-deriving their own comparisons. *)

open Ubpa_util
open Ubpa_sim

module Make (P : Protocol.S) : sig
  module RT : module type of Ubpa_runtime.Runner.Make (P)
  module H : module type of Harness.Make (P)

  type check = {
    c_name : string;
        (** "oracle-replay", "decisions", "decide-rounds", "rounds",
            "trace", "wire". *)
    c_ok : bool;
    c_detail : string;  (** Human-readable; "" when [c_ok]. *)
  }

  type verdict = {
    v_run : RT.run;
    v_oracle : RT.Oracle.outcome;
    v_sim : H.outcome;
    v_checks : check list;
    v_ok : bool;  (** Every check passed. *)
  }

  val compare_with_sim :
    ?equal_output:(P.output -> P.output -> bool) ->
    ?transport:RT.transport ->
    ?round_ms:float ->
    ?max_rounds:int ->
    correct:(Node_id.t * P.input) list ->
    unit ->
    (verdict, string) result
  (** [Error] only when the networked run itself fails (runtime
      unavailable, bad population, node crash); an inequivalence is a
      failed check, not an error. [equal_output] defaults to structural
      equality — right for the pure-data outputs scenario protocols
      use. *)

  (** The graceful-degradation verdict for a faulty run. *)
  type fault_verdict = {
    f_run : RT.run;
    f_oracle : RT.Oracle.outcome;  (** Delivered-mode replay. *)
    f_survivors : Node_id.t list;
        (** Nodes outside the plan ({!Ubpa_faults.victims}), ascending. *)
    f_checks : check list;
        (** "oracle-replay" (delivered-schedule equivalence),
            "crash-view" (the oracle's missing set matches the runtime's
            crash ledger), "monitors" (agreement + event sanity with every
            plan victim excused), "survivor-agreement", "survivors-decide"
            (over the nodes outside the plan). *)
    f_ok : bool;
  }

  val run_with_faults :
    ?equal_output:(P.output -> P.output -> bool) ->
    ?transport:RT.transport ->
    ?round_ms:float ->
    ?max_rounds:int ->
    ?dead_after:int ->
    faults:Ubpa_faults.plan ->
    seed:int64 ->
    correct:(Node_id.t * P.input) list ->
    unit ->
    (fault_verdict, string) result
  (** Run under a fault plan and gate on graceful degradation instead of
      exact lockstep equivalence: the delivered schedule must replay
      clean through the oracle's delivered mode, the safety monitors
      (with every plan victim excused: a node with a benign fault counts
      against f, as in the simulator's chaos harness) must stay green,
      and the correct nodes outside the plan must all decide and agree.
      A plan beyond the protocol's fault budget is {e expected} to fail
      one of these checks — the verdict reports it, the caller decides
      whether that was the experiment's point. [equal_output] is both the
      monitor's agreement relation and the survivor-agreement comparison;
      for protocols whose outputs are streams (reliable broadcast), pass
      the appropriate consistency relation. *)
end
