(** Early-terminating consensus (Algorithm 3) as a self-clocked state
    machine.

    The machine is driven by a host that calls {!Make.step} exactly once per
    synchronous round, handing over the messages delivered in that round and
    broadcasting the returned sends. Factoring it this way lets the same
    logic back the standalone {!Consensus} protocol and the terminating
    reliable broadcast of the appendix.

    Round schedule (local rounds):

    - round 1: broadcast [init] (rotor-coordinator initialization);
    - round 2: broadcast [echo(p)] for every [init] received from [p];
    - round 3 = phase 1 position 1: fix the member set — every identifier
      heard from so far — and [n_v = |members|]; from now on messages from
      non-members are discarded;
    - each phase is five rounds: input / prefer / strong-prefer /
      rotor / resolve, as in the paper.

    Missing-member substitution (caption of Algorithm 3): when a member is
    silent in a round where a message of type input/prefer/strongprefer is
    being counted, the node substitutes the message {e it itself} sent of
    that type most recently in this phase (if any). This is what lets the
    remaining nodes finish one phase after the first node terminates and
    stops sending. *)

open Ubpa_util
open Ubpa_sim

module Make (V : Value.S) : sig
  type message =
    | Init
    | Cand_echo of Node_id.t
        (** Rotor candidate echo — both the round-2 init echo and the
            in-loop relay echoes. *)
    | Input of V.t
    | Prefer of V.t
    | Strongprefer of V.t
    | Opinion of V.t  (** Coordinator's opinion for the current phase. *)

  val pp_message : message Fmt.t

  val compare_message : message -> message -> int
  (** Constructor rank, then per-constructor argument order ([V.compare] /
      [Node_id.compare]); exposed so protocol wrappers satisfy
      {!Ubpa_sim.Protocol.S} by delegation. *)

  val equal_message : message -> message -> bool

  val encoded_bits : message -> int
  (** Reference-encoding wire size ({!Ubpa_sim.Protocol.S.encoded_bits}). *)

  type status = Running | Decided of V.t

  type t

  val create : self:Node_id.t -> index:Interner.t -> input:V.t -> t
  (** [index] is the run's sender index; member and sender sets are
      bitsets over it. *)

  val step :
    t ->
    inbox:(Node_id.t * message) list ->
    (Envelope.dest * message) list * status
  (** Run one local round. After [Decided] is returned the machine must not
      be stepped again. *)

  (** {2 Introspection (tests, traces)} *)

  val opinion : t -> V.t
  (** Current [x_v]. *)

  val phase : t -> int
  (** Current phase number, 0 during initialization. *)

  val members : t -> Node_id.t list
  (** The fixed member set, empty before round 3. *)

  val n_v : t -> int

  val copy : t -> t
  (** Independent snapshot; stepping the copy never affects the
      original. Used by the bounded checker to branch a configuration. *)

  val key : Buffer.t -> t -> unit
  (** Writes the canonical id-space fingerprint, a prefix-free binary
      encoding ({!Ubpa_util.Key}): equal keys mean the two machines behave
      identically on identical future inboxes. Set-semantics buffers are
      sorted before encoding (their order never reaches a threshold or the
      deterministic tally tie-break). *)
end
