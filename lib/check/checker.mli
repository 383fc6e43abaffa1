(** Bounded exhaustive safety checker.

    Explores {e every} execution of a protocol under the finite adversary
    model M1 (docs/CHECKING.md): scripted per-round Byzantine unicasts
    drawn from the model's palette, plus optional crash-stop and
    receive-omission budgets. The search is a frontier BFS over canonical
    configurations with state-hash dedup and an optional clone-class
    symmetry reduction; frontier expansion runs on the multicore
    {!Ubpa_harness.Pool} with submission-order merge, so verdicts, stats
    and counterexamples are byte-identical at any [jobs]. On violation the
    script is greedily minimized and re-executed under a live
    {!Ubpa_sim.Trace}, yielding a standard JSONL trace that [ubpa trace]
    can pretty-print and tests can replay. *)

open Ubpa_util

type stats = {
  roots : int;  (** root input assignments explored *)
  explored : int;  (** configurations expanded (successors generated) *)
  distinct : int;  (** distinct canonical configurations *)
  dedup_hits : int;  (** successors folded into an existing config *)
  sym_skips : int;  (** choice vectors pruned by recipient symmetry *)
  frontier_peak : int;
  depth : int;  (** deepest fully explored round *)
}

type verdict =
  | Verified  (** Every reachable configuration satisfies every property. *)
  | Violated
  | Out_of_budget  (** [max_states] hit; nothing proved. *)

val verdict_to_string : verdict -> string

type cex = {
  cx_root : string;  (** name of the violating input assignment *)
  cx_property : string;
  cx_detail : string;
  cx_round : int;
  cx_byz_msgs : int;  (** byz messages left after minimization *)
  cx_crashes : int;
  cx_omits : int;
  cx_jsonl : string;  (** replayable {!Ubpa_sim.Trace} JSONL *)
  cx_replayed : bool;  (** the minimized script reproduces the violation *)
}

type result = { verdict : verdict; stats : stats; cex : cex option }

module Make (M : Model.S) : sig
  (** Adversary choices for one round. *)
  type action = {
    crash : Node_id.t option;  (** crash-stop applied before delivery *)
    omit : (Node_id.t * Node_id.t) option;
        (** receive-omission: (src, dst) deliveries dropped this round *)
    byz : (Node_id.t * Node_id.t * M.P.message) list;
        (** (byz, recipient, payload) unicasts sent this round, arriving
            next round — the rushing adversary's move *)
  }

  val silent_action : action

  val check :
    ?jobs:int ->
    ?symmetry:bool ->
    ?max_states:int ->
    ?crash_budget:int ->
    ?omit_budget:int ->
    ?seed:int64 ->
    n:int ->
    f:int ->
    max_rounds:int ->
    unit ->
    result
  (** Exhaustively check all of the model's roots with [n - f] correct and
      [f] Byzantine nodes, up to [max_rounds] rounds. [symmetry] (default
      true) applies the clone-class reduction when the model declares
      [recipient_symmetric]; [max_states] (default 1_000_000) bounds
      distinct configurations per root; [crash_budget] / [omit_budget]
      (default 0) bound benign fault events per execution; [seed]
      (default 7) scatters the node-id population exactly like the
      harness does.

      @raise Invalid_argument unless [0 <= f < n], [max_rounds >= 1] and
      both budgets are non-negative. *)

  type replay_outcome = {
    finished : [ `All_halted | `Max_rounds_reached of Node_id.t list ];
    rounds : int;
    violation : (string * string * int) option;
        (** (property, detail, round) — first violation observed *)
    outputs : (Node_id.t * M.P.output) list;
    state_keys : (Node_id.t * string) list;
    halted : (Node_id.t * int) list;
  }

  val replay :
    ?trace:Ubpa_sim.Trace.t ->
    ?monitor:M.P.output Ubpa_monitor.t ->
    ?max_rounds:int ->
    correct:(Node_id.t * M.P.input) list ->
    byzantine:Node_id.t list ->
    actions:action list ->
    unit ->
    replay_outcome
  (** Deterministically execute one scripted run — counterexample replay,
      differential tests against the engine, monitor smoke tests. Rounds
      beyond the script run the silent action; execution stops when every
      node halted (or was crashed) and the script is exhausted, or at
      [max_rounds] (default 16) with the stalled set reported exactly like
      {!Ubpa_sim.Network}. A [monitor] sees every trace event and gets a
      per-round observation, mirroring the harness wiring. *)

  val population : seed:int64 -> n:int -> f:int -> Node_id.t list * Node_id.t list
  (** The (correct, byzantine) ids {!check} uses — for building replay
      scripts against the same population. *)
end
