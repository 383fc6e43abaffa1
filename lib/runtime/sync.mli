(** Deadline-based round synchronizer.

    One instance per node, no shared state, no barriers. After stepping
    round [r] and emitting its Data frames, a node broadcasts a control
    marker to every peer (itself included): [Done r] normally, [Halt r]
    as a farewell when it halts. Per-edge FIFO order means a peer's
    [Done r] arrives after all of its round-[r] data, so:

    - {b fast path} — once every awaited peer's marker for round [r] is
      in, the round is complete: all its data has been received, and the
      node advances immediately. On a fault-free run this reproduces the
      lockstep schedule exactly, at marker speed, regardless of
      [round_ms].
    - {b deadline path} — with [round_ms > 0], a node whose deadline
      fires advances anyway: whatever data arrived is the inbox, the
      missing peers are reported, and frames that show up afterwards are
      {e late} — counted and dropped, never delivered to the protocol.
      With [round_ms <= 0] there is no deadline (wait forever), which is
      only sound when every peer keeps marking — plans that crash nodes
      require a real timeout, and {!Runner.run} enforces that.
    - {b liveness tracking} — a peer that misses [dead_after]
      consecutive deadlines is presumed dead: removed from the wait set
      for good, so one crashed process costs [dead_after] timeouts, not
      a timeout per remaining round.

    The synchronizer never blocks or sleeps. Between checks the node
    blocks in {!Transport.S.recv} on the first peer of {!waiting_on},
    for at most {!timeout}, so the deadline still fires when that peer
    stays silent. A node that blocked on one peer has not read the
    others, so at the deadline it reads every peer of {!waiting_on}
    once more without blocking before asking {!ready}: otherwise a live
    peer whose marker sits unread would be reported missing.

    The synchronizer is pure state + an injected clock ([~now]), so the
    deadline/liveness logic unit-tests without threads or a wall
    clock. *)

open Ubpa_util

type t

(** What a completed wait returns. *)
type verdict = {
  v_inbox : Frame.t list;
      (** Data frames sent in this round, in arrival order. *)
  v_missing : Node_id.t list;
      (** Peers whose marker had not arrived when the deadline fired
          (empty on the fast path), ascending. *)
  v_newly_dead : Node_id.t list;
      (** Peers that just crossed [dead_after] silent rounds, ascending. *)
}

(** A synchronizer-level fault observation (late frame, presumed-dead
    peer), in the [fault:] trace vocabulary. *)
type event = { e_round : int; e_peer : Node_id.t; e_what : string }

val create : peers:Node_id.t list -> round_ms:float -> dead_after:int -> t
(** [peers] is the full population including self. Raises
    [Invalid_argument] if [dead_after < 1]. *)

val begin_round : t -> round:int -> now:float -> unit
(** Enter the wait for [round]: sets the deadline ([now + round_ms]) and
    re-classifies any buffered future frames under the new round. *)

val offer : t -> Frame.t list -> unit
(** Feed received frames: markers advance per-peer progress, on-time data
    joins the inbox, data for a later round is buffered, data for an
    earlier round is counted late and dropped. *)

val ready : t -> now:float -> verdict option
(** [None] while still waiting. [Some] when every awaited peer has
    marked this round (fast path) or the deadline has fired. *)

val timeout : t -> now:float -> float
(** Seconds left before this round's deadline (zero or less once it has
    passed), or [infinity] when there is none ([round_ms <= 0]) — how
    long a node may block waiting for markers before {!ready} can change
    its answer without a new frame. *)

val waiting_on : t -> Node_id.t list
(** Peers currently blocking the round: not presumed dead, not halted
    before this round, marker not yet seen. Ascending. *)

val late_frames : t -> int
(** Total late frames counted so far (monotone). *)

val data_frames : t -> int
val data_bytes : t -> int
(** Data frames (and their on-wire bytes, headers included) that reached
    a terminal classification — delivered on time or counted late.
    Frames still buffered for a future round are not counted yet: the
    count is a pure function of the delivered schedule, not of how much
    a node happened to receive before exiting. *)

val dead_peers : t -> Node_id.t list
(** Peers presumed dead so far, ascending. *)

val events : t -> event list
(** Late-frame and presumed-dead observations, oldest first. *)
