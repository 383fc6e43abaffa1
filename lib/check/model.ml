(** Model signature for the bounded checker.

    A model wraps one {!Ubpa_sim.Protocol.S} state machine with the finite
    adversary vocabulary the checker branches over (the per-arrival-round
    message {e palette}), the canonical state fingerprint driving dedup,
    and the safety properties evaluated on every reachable configuration.
    See docs/CHECKING.md for the adversary model (M1) and its limits. *)

open Ubpa_util

(** Per-node snapshot handed to properties after every round. *)
type ('i, 'o) obs = {
  ob_id : Node_id.t;
  ob_input : 'i;
  ob_halted : bool;
  ob_down : bool;  (** An enumerated crash is in effect (permanent). *)
  ob_output : 'o option;  (** Latest output, final iff [ob_halted]. *)
}

module type S = sig
  module P :
    Ubpa_sim.Protocol.S with type stimulus = Ubpa_sim.Protocol.No_stimulus.t
  (** [P.step] must be a deterministic function of (self, round, state,
      inbox). Replay from scripts relies on it, and so does the checker's
      per-expansion step memo: siblings that deliver a node the same
      inbox share one stepped state (docs/CHECKING.md). *)

  val name : string

  val roots :
    correct:Node_id.t list ->
    byzantine:Node_id.t list ->
    (string * P.input list) list
  (** Named initial input assignments for the correct nodes (same order as
      [correct]). Every root is explored exhaustively; all must be safe. *)

  val palette :
    arrival:int ->
    correct:Node_id.t list ->
    byzantine:Node_id.t list ->
    P.message list
  (** Messages a Byzantine node may address to one correct recipient so
      that they {e arrive} in round [arrival]. Silence is always an
      implicit extra option; the empty list means byz nodes stay silent
      that round. Keep palettes curated: the checker is exhaustive with
      respect to this vocabulary, and branching is
      [(length + 1) ^ (byz * recipients)] per round. *)

  val copy_state : P.state -> P.state
  (** Deep copy: stepping the copy must never affect the original. *)

  val state_key : P.state -> string
  (** Canonical fingerprint. Soundness contract: equal keys imply equal
      behavior on equal future inboxes {e and} equal property verdicts.
      Keys are opaque bytes, compared and hashed but never shown; write
      them with {!Ubpa_util.Key}. *)

  val input_key : P.input -> string
  val output_key : P.output -> string
  (** Exact binary keys, like {!state_key}. *)

  val recipient_symmetric : bool
  (** Declare [true] only when the protocol's dynamics are invariant
      under permuting two correct nodes with identical inputs and
      identical adversary history (no id-order-sensitive logic such as
      the rotor's candidate indexing). Enables canonical-choice-vector
      pruning across interchangeable recipients. *)

  val pinned :
    correct:Node_id.t list -> byzantine:Node_id.t list -> Node_id.t list
  (** Correct nodes referenced by name inside palette messages, roots or
      properties; never considered interchangeable by the symmetry
      reduction. *)

  val properties :
    correct:Node_id.t list ->
    byzantine:Node_id.t list ->
    (string * (round:int -> (P.input, P.output) obs list -> string option))
    list
  (** Safety properties, checked after every round on every new
      configuration; return [Some detail] to report a violation. *)
end
