(** Parallel consensus (Algorithm 5): a bundle of [EarlyConsensus(id)]
    instances sharing one membership and one rotor-coordinator, as a
    self-clocked state machine (driven like {!Consensus_core}).

    Every instance follows the 5-round phase schedule of Algorithm 3 in
    lockstep with the others; ⊥ opinions are [None]. Properties (Theorem
    "parCon", for [n > 3f]):

    - {e validity}: a pair [(id, x)], [x ≠ ⊥], input at every correct node
      is output by every correct node;
    - {e agreement}: correct nodes output the same pair set;
    - {e termination}: all instances decide in [O(f)] phases; instances
      whose identifier no correct node holds terminate in the first phase
      without producing output.

    {2 Interpretation of the paper's substitution rules}

    The caption of Algorithm 5 is compressed; we realize it as follows
    (DESIGN.md discusses the choice):

    - {e discovery} is possible only during the first phase, on an
      [id:input] at position 2, an [id:prefer] at position 3, or an
      [id:strongprefer] at the rotor position — later [id]-messages for
      unknown instances are discarded;
    - {e first phase}: members silent in a counting slot are counted as the
      ⊥ message of that slot; explicit [nopreference] /
      [nostrongpreference] markers count as nothing;
    - {e later phases}: aware nodes broadcast their input slot
      unconditionally (an explicit [input(⊥)] plays the role of a marker),
      so a member silent in a slot is terminated or Byzantine-silent and is
      substituted with the node's {e own} most recent send of that slot —
      the caption's rule, which is what lets the remaining nodes finish one
      phase after the first termination. *)

open Ubpa_util
open Ubpa_sim

module Make (V : Value.S) : sig
  type opinion = V.t option
  (** [None] is the paper's ⊥. *)

  type body =
    | Input of opinion
    | Prefer of opinion
    | Strongprefer of opinion
    | Nopreference
    | Nostrongpreference
    | Opinion of opinion  (** coordinator's per-instance opinion *)

  type message =
    | Init
    | Cand_echo of Node_id.t
    | Inst of int * body  (** instance-tagged traffic *)

  val pp_message : message Fmt.t

  val compare_message : message -> message -> int
  (** Constructor rank, then instance id, then per-constructor argument
      order; exposed so wrappers satisfy {!Ubpa_sim.Protocol.S} by
      delegation. *)

  val equal_message : message -> message -> bool

  val encoded_bits : message -> int
  (** Reference-encoding wire size ({!Ubpa_sim.Protocol.S.encoded_bits}). *)

  type status =
    | Running
    | Done of (int * V.t) list
        (** All instances decided; the non-⊥ outputs, sorted by id. *)

  type t

  val create :
    ?restrict:Node_id.Set.t ->
    self:Node_id.t ->
    index:Interner.t ->
    inputs:(int * V.t) list ->
    unit ->
    t
  (** [restrict] drops messages from senders outside the given set — used
      by the total-ordering algorithm to run an instance group "with
      respect to [S]". *)

  val step :
    t ->
    inbox:(Node_id.t * message) list ->
    (Envelope.dest * message) list * status

  (** {2 Introspection} *)

  val instances : t -> int list
  (** Known instance identifiers, ascending. *)

  val decided : t -> (int * opinion) list
  (** Decided instances so far including ⊥ decisions, ascending id. *)

  val members : t -> Node_id.t list

  val phase : t -> int
end
