(** Protocol interface for correct nodes.

    A protocol is a deterministic state machine driven once per synchronous
    round. Messages handed to [step] at round [r] are exactly those sent in
    round [r - 1] (with per-round duplicates from the same sender removed).
    Messages must be pure, structurally comparable data; each protocol names
    its own message order through {!S.compare_message}/{!S.equal_message}
    (use {!Structural} for the plain structural default), so the engine
    never applies polymorphic comparison to opaque state. *)

open Ubpa_util

type 'o status =
  | Continue  (** Keep running, no new output. *)
  | Deliver of 'o
      (** Produce an output but keep participating (e.g. reliable-broadcast
          accept, total-order chain snapshots). The engine remembers the
          latest delivered output and the round of the first one. *)
  | Stop of 'o  (** Final output; the node halts and leaves the network. *)

module type S = sig
  type input
  (** Per-node input handed over at initialization. *)

  type stimulus
  (** External per-round stimulus (events witnessed, leave requests, ...).
      Use {!No_stimulus.t} when the protocol has none. *)

  type output
  type message
  type state

  val name : string

  val init : self:Node_id.t -> round:int -> index:Interner.t -> input -> state
  (** Called when the node enters the network; its first [step] happens in
      the same [round] with an empty inbox. [index] is the run's sender
      index: the engine has registered every node whose messages can
      reach this one before they arrive, so the state may keep its sender
      sets as {!Ubpa_util.Bitset}s over {!Ubpa_util.Interner.slot}. The
      index is shared by every node of the run and read-only to
      protocols; it changes how sets are stored, never what a node knows
      (decisions still see only n_v and membership). *)

  val step :
    self:Node_id.t ->
    round:int ->
    stim:stimulus list ->
    state ->
    inbox:(Node_id.t * message) list ->
    state * (Envelope.dest * message) list * output status

  val compare_message : message -> message -> int
  (** Total order on messages. Used by generic tooling that needs ordered
      or keyed message collections. *)

  val equal_message : message -> message -> bool
  (** Message equality, consistent with {!compare_message}. The engine's
      delivery core uses it for the per-round per-recipient
      [(sender, payload)] dedup. *)

  val encoded_bits : message -> int
  (** Wire size of a message under the repo's reference encoding, in bits.
      Wire accounting sizes each accepted record once (a broadcast once,
      however many recipients accept it) and charges that size to every
      recipient ({!Ubpa_obs.Wire}), which is what the bit-complexity
      experiments measure. It must be a pure function of the message: the
      delivery hook reuses the last size while the next payload is
      physically the same value. Most protocols take the structural default
      ({!Ubpa_obs.Sizing.structural_bits}, re-exported as
      {!structural_bits} and included in {!Structural}); override it only
      where the structural model misprices the payload (e.g. one-bit
      votes). Must be deterministic and compiler-independent — sizes land
      in committed benchmark baselines. *)

  val pp_message : message Fmt.t
end

let structural_bits : 'a -> int = Ubpa_obs.Sizing.structural_bits

(** The pre-engine-v2 default: plain structural (polymorphic) comparison.
    Correct for any message type built from immutable non-float
    constructors; protocols whose messages carry abstract or float-valued
    components should spell out their own comparators instead. *)
module Structural (M : sig
  type t
end) =
struct
  let compare_message : M.t -> M.t -> int = Stdlib.compare
  let equal_message : M.t -> M.t -> bool = Stdlib.( = )
  let encoded_bits : M.t -> int = Ubpa_obs.Sizing.structural_bits
end

module No_stimulus = struct
  type t = |

  let none : t list = []
end
