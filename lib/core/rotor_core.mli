(** The rotor-coordinator (Algorithm 2): its candidate/selection state
    machine and the host's side of it, so it can run standalone (one rotor
    round per network round, {!Rotor}) or embedded (one rotor round per
    five-round phase, {!Consensus_core}, {!Binary_consensus} and
    {!Parallel_consensus_core}).

    Each host keeps its own message type and passes its [init], [echo(p)]
    and opinion constructors in. It sends what {!opening} returns in local
    rounds 1 and 2, feeds every [echo(p)] it receives to {!hear}, runs
    {!turn} once per rotor round and broadcasts its sends, and accepts the
    selected coordinator's opinion one round later ({!opinion_of}). *)

open Ubpa_util
open Ubpa_sim

type t

val create : index:Interner.t -> unit -> t
(** Fresh rotor state. Echo senders are counted as bitsets over [index],
    the run's sender index. *)

val opening :
  local_round:int ->
  init:'m ->
  is_init:('m -> bool) ->
  echo:(Node_id.t -> 'm) ->
  (Node_id.t * 'm) list ->
  (Envelope.dest * 'm) list
(** Local rounds 1 and 2: round 1 broadcasts [init]; round 2 broadcasts
    [echo(p)] for every [init] in the inbox from [p], in inbox order. *)

val hear : t -> sender:Node_id.t -> Node_id.t -> unit
(** [hear t ~sender p] buffers one [echo(p)] from [sender] for the next
    {!turn}. *)

type 'm turn = {
  selected : Node_id.t option;
      (** Coordinator of this rotor round ([None] on an empty candidate
          set, or when [finished]). *)
  loop_index : int;  (** Algorithm 2's loop index [r] of this round. *)
  finished : bool;
      (** The node re-selected an earlier coordinator: Algorithm 2's
          [break]. No coordinator is appointed in this round. *)
  sends : (Envelope.dest * 'm) list;
      (** Broadcasts: the opinions when this node is [selected], then
          [echo(p)] for each candidate whose echoes crossed [n_v/3] (the
          set [B_v]), in the order the tally first saw them. *)
}

val turn :
  t ->
  self:Node_id.t ->
  n_v:int ->
  echo:(Node_id.t -> 'm) ->
  opinions:(unit -> 'm list) ->
  'm turn
(** Runs one iteration of Algorithm 2's loop over every echo heard since
    the last turn, newest first, and empties the buffer. Duplicate senders
    per candidate are counted once. [opinions] is called only when this
    node is the selected coordinator. *)

val opinion_of :
  Node_id.t option ->
  opinion:('m -> 'v option) ->
  (Node_id.t * 'm) list ->
  'v option
(** [opinion_of coordinator ~opinion inbox]: the opinion the coordinator
    sent in [inbox], the last one if it sent several; [None] without a
    coordinator. *)

val candidates : t -> Node_id.t list
(** Current [C_v], ascending. *)

val selections : t -> (int * Node_id.t) list
(** [(rotor round index, coordinator)] history, oldest first. *)

val copy : t -> t
(** Independent snapshot; stepping the copy never affects the original. *)

val fingerprint : Buffer.t -> t -> unit
(** Writes the canonical binary encoding ({!Ubpa_util.Key}) of the
    dynamics-relevant state ([C_v], [S_v], loop index, then the buffered
    echoes as sorted (sender, candidate) pairs) in id space: equal
    fingerprints mean the two rotors behave identically on identical
    future echoes. Used by the bounded checker's exact dedup. *)
