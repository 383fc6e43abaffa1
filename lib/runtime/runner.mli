(** The networked runtime: one concurrent process per node.

    [Make (P)] runs an {e unchanged} [Protocol.S] instance per node, each
    on its own system thread, exchanging messages through a
    {!Transport.S} backend wrapped in the {!Transport_faulty} fault
    middleware. The deadline-based round synchronizer ({!Sync}) keeps the
    processes aligned with the synchronous model without any shared
    barrier: each node broadcasts a control marker after its send phase
    and flushes its frames (one write per peer per round); a waiting
    node blocks in {!Transport.S.recv} on the first peer it still awaits
    and advances as soon as every awaited peer has marked (fast path —
    on a fault-free run this reproduces the lockstep schedule exactly),
    or when its [round_ms] deadline fires (real timeout — every awaited
    peer is read once more without blocking, missing frames become
    inbox holes, frames arriving afterwards are counted late and
    dropped, and a peer silent for [dead_after] consecutive deadlines is
    presumed dead and no longer waited on). Messages sent in round [r]
    are consumed in round [r + 1], with per-round (sender, payload) dedup
    and sender-sorted inboxes — the simulator's delivery contract,
    rebuilt at the receiving edge.

    Every run records its full {e delivered} schedule (per node per
    round: the inbox consumed and the sends emitted) so the lockstep
    simulator can replay it as an equivalence oracle ({!Make.Oracle},
    {!Ubpa_sim.Replay} — exact mode for fault-free runs, delivered mode
    for runs with holes), plus trace events in the simulator's exact
    vocabulary, wire counters, transport-level accounting (frame bytes,
    late frames), and the fault-injection ledger (injected drops /
    duplicates / delays, presumed-dead marks, crashes).

    On OCaml 4.14 builds the backend is the sequential stub and
    {!Make.run} returns [Error "runtime unavailable: ..."] without
    touching any concurrency primitive. *)

open Ubpa_util
open Ubpa_sim

module Make (P : Protocol.S) : sig
  module Oracle : module type of Replay.Make (P)
  (** The replay oracle at this protocol — exposed so callers share one
      functor application's types with {!run}'s recorded schedule. *)

  type transport = [ `Domains | `Socket ]

  val transport_name : transport -> string

  type node_summary = {
    ns_id : Node_id.t;
    ns_output : P.output option;  (** Latest output, if any. *)
    ns_decide_round : int option;  (** First output round. *)
    ns_halted_at : int option;
    ns_crashed_at : int option;
        (** Round the fault plan crashed this node's process, if any. *)
  }

  type run = {
    r_transport : string;
    r_rounds : int;  (** Rounds actually executed. *)
    r_nodes : node_summary list;  (** Ascending id. *)
    r_schedule : Oracle.schedule;  (** What the wire actually delivered. *)
    r_events : Trace.event list;
        (** Joins, sends, outputs, halts in the simulator's exact
            vocabulary and order — comparable with a sim run's
            [Trace.events] via {!Trace.equal_events} on fault-free runs —
            plus [fault:] events for every injected fault, late frame,
            presumed-dead mark and crash, in a deterministic order
            (per round, per node, sorted). *)
    r_wire : Ubpa_obs.Wire.t;
        (** Accept-point accounting over the runtime's own deliveries. *)
    r_frames : int;
        (** Data frames that reached a terminal classification (delivered
            on time or late), across all nodes, pre-dedup — a pure
            function of the delivered schedule. *)
    r_frame_bytes : int;
        (** Their transport-level bytes (headers included) — overhead,
            kept separate from semantic bits. *)
    r_ctrl_frames : int;
        (** Done/Halt markers received before exit. Informative only:
            how many markers a node receives past its last round is a
            scheduler race, so this is not byte-deterministic. *)
    r_late_frames : int;
        (** Data frames that missed their delivery round — counted,
            dropped, never handed to a protocol. 0 on fault-free runs
            (markers make the fast path exact); strictly positive when
            delay faults fire. *)
    r_missing : int;
        (** Peer-rounds the deadline gave up on (wall-clock dependent on
            a loaded machine; the gated experiments only rely on it
            through [r_dead]). *)
    r_injected : Transport_faulty.injected;  (** Summed over endpoints. *)
    r_dead : (Node_id.t * Node_id.t * int) list;
        (** [(observer, peer, round)]: observer presumed peer dead after
            [dead_after] silent deadline rounds. *)
    r_crashed : (Node_id.t * int) list;
        (** Nodes the plan crashed, with their crash round. *)
  }

  val assemble_inbox :
    (Node_id.t * P.message) list -> (Node_id.t * P.message) list
  (** One round's received messages, in arrival order, as the delivery
      contract hands them to [P.step]: sorted by sender, each sender's
      messages in arrival order, and a payload repeated by the same
      sender kept once (the first copy). Equal payloads from different
      senders are all kept. *)

  val available : bool
  (** False on sequential-only (4.14) builds; {!run} then fails
      gracefully. *)

  val unavailable_reason : string

  val run :
    ?transport:transport ->
    ?round_ms:float ->
    ?max_rounds:int ->
    ?faults:Ubpa_faults.plan ->
    ?fault_seed:int64 ->
    ?dead_after:int ->
    correct:(Node_id.t * P.input) list ->
    unit ->
    (run, string) result
  (** [run ~correct ()] spawns one process per node, all joining at round
      1, and drives rounds until every node halted or [max_rounds]
      (default 64) executed. [round_ms] (default 0) is the per-round
      deadline — 0 means no deadline (wait for markers forever), which
      is only legal for plans without crash/leave faults. [faults]
      (default empty) is applied at the wire by {!Transport_faulty},
      seeded by [fault_seed] (default 1); crash/leave faults stop the
      node's process at their round. [dead_after] (default 2) is the
      liveness tracker's silent-round threshold. Defaults to the
      [`Domains] transport. Errors: runtime unavailable, empty/duplicate
      node list, a plan naming unknown nodes, recovery/rejoin plans
      (a real crashed process cannot resume), crash plans without a
      deadline, a node process raising, or a transport edge failing
      ({!Transport.error}; the run still shuts down cleanly). *)

  val replay : ?delivered:bool -> run -> Oracle.outcome
  (** Feed the recorded schedule through the simulator's arena delivery
      core — the oracle verdict callers gate on. [delivered] (default
      false) switches {!Ubpa_sim.Replay.Make.replay} to delivered mode:
      required for runs whose faults created holes, where the runtime's
      schedule is legitimately a sub-schedule of lockstep delivery. *)
end
