(** Fault-injecting transport middleware.

    Wraps either backend ({!Transport_domains}, {!Transport_socket}) and
    applies a seeded {!Ubpa_faults.plan} to the wire — the same plan
    vocabulary the simulator interprets, so the runtime and the
    simulator speak one fault language. Per directed edge and per Data
    frame, in order:

    - {b send side}: send-omission (sender's window, at the send round),
      then global loss;
    - {b receive side}: receive-omission, then delay, then global
      duplication (all evaluated at the delivery round, send round + 1,
      matching the simulator). A delayed frame is held for its extra
      rounds and then surfaced — deterministically late, counted and
      dropped by the synchronizer. A duplicate copy is held one round
      and surfaces the same way, the runtime analogue of the
      simulator's per-round dedup absorbing same-round copies.

    Control frames ([Done]/[Halt]) are never faulted: they model the
    synchronizer's knowledge of {e process} liveness, and a lossy wire
    must not make a running peer look dead. Process crashes are not a
    wire fault at all — {!Runner} stops the crashed node's loop.

    Every decision draws from a splitmix64 stream keyed by
    [(seed, src, dst, direction)] only, and edges are FIFO, so outcomes
    are identical across transports, schedulers and [--jobs] — which is
    what lets RT2's fault cells live in a committed baseline. A plan
    that {!Ubpa_faults.is_empty} makes the wrapper a pure pass-through
    (no draws, no buffering): the fault-free path is byte-identical to
    the bare backend. *)

(** Injection counters for one endpoint (receiver side for delay,
    sender side for loss/omission/dup). *)
type injected = {
  mutable inj_lost : int;  (** loss + send-omission + recv-omission drops *)
  mutable inj_dup : int;
  mutable inj_delayed : int;
}

(** One injected-fault observation, in the [fault:] trace vocabulary,
    attributed to the round whose window triggered it. *)
type fault_event = { fe_round : int; fe_what : string }

module type CONFIG = sig
  val plan : Ubpa_faults.plan
  val seed : int64
end

(** {!Transport.S} plus the fault-injection surface. *)
module type S = sig
  include Transport.S

  val note_round : endpoint -> int -> Frame.t list
  (** The owner entered this round's wait: returns the held duplicates
      and delayed frames whose release round has come, oldest first.
      Frames held later and already due surface on the {!recv} that
      read them. Called once per round, so a matured frame is offered in
      the round it matures whichever receives that round makes. *)

  val injected : endpoint -> injected
  val fault_events : endpoint -> fault_event list
  (** Oldest first. *)
end

module Make (_ : Transport.S) (_ : CONFIG) : S
