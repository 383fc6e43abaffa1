(** Candidate/selection state machine of the rotor-coordinator
    (Algorithm 2), factored out so it can run standalone (one rotor round
    per network round, {!Rotor}) or embedded (one rotor round per consensus
    phase, {!Consensus_core} and {!Parallel_consensus_core}).

    The host owns the network plumbing: it feeds each rotor round the
    [echo(p)] messages that arrived for it, broadcasts the returned relay
    echoes, broadcasts its opinion when [i_am_coordinator], and accepts the
    opinion of the previously selected coordinator. *)

open Ubpa_util

type t

val create : index:Interner.t -> unit -> t
(** Fresh rotor state. Echo senders are counted as bitsets over [index],
    the run's sender index. *)

type step_result = {
  selected : Node_id.t option;
      (** Coordinator of this rotor round ([None] only in the degenerate
          case of an empty candidate set). *)
  relay_echoes : Node_id.t list;
      (** Candidates whose echo crossed [n_v/3]; the host must re-broadcast
          [echo(p)] for each (the set [B_v]). *)
  i_am_coordinator : bool;
  finished : bool;
      (** The node re-selected an earlier coordinator: Algorithm 2's
          [break]. No coordinator is appointed in this round. *)
}

val rotor_round :
  t ->
  self:Node_id.t ->
  n_v:int ->
  echoes:(Node_id.t * Node_id.t) list ->
  step_result
(** [rotor_round t ~self ~n_v ~echoes] runs one iteration of Algorithm 2's
    loop. [echoes] are the [(sender, candidate)] pairs delivered for this
    rotor round; duplicate senders per candidate are counted once. *)

val candidates : t -> Node_id.t list
(** Current [C_v], ascending. *)

val selections : t -> (int * Node_id.t) list
(** [(rotor round index, coordinator)] history, oldest first. *)

val copy : t -> t
(** Independent snapshot; stepping the copy never affects the original. *)

val fingerprint : Buffer.t -> t -> unit
(** Writes the canonical binary encoding ({!Ubpa_util.Key}) of the
    dynamics-relevant state ([C_v], [S_v], loop index) in id space: equal
    fingerprints mean the two rotors behave identically on identical
    future echoes. Used by the bounded checker's exact dedup. *)
