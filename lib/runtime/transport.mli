(** The transport seam of the networked runtime.

    A transport moves encoded {!Frame.t}s between node endpoints; the
    round structure, delivery semantics (dedup, sender-sorted inboxes,
    halt handling) and all accounting live {e above} this interface in
    {!Runner}, so every backend automatically inherits the simulator's
    delivery contract. Two backends ship: {!Transport_domains}
    (in-process mailboxes between node threads) and
    {!Transport_socket} (a full mesh of Unix-domain socketpairs with
    length-prefixed stream framing).

    Waiting is the transport's business: a node blocks in {!S.recv} on
    the one peer it is waiting for, so a backend can sleep in the very
    system call that will carry that peer's frames.

    This is the only copy of the signature: {!Transport_faulty.S}
    includes it. *)

(** Why one peer's edge carries no more frames. A transport returns it
    in place of raising; it is final: the caller stops using the edge. *)
type failure =
  | Closed  (** The peer closed its end, or the hub was closed. *)
  | Corrupt of string  (** The peer's byte stream does not decode. *)

type error = { peer : Ubpa_util.Node_id.t; failure : failure }

module type S = sig
  val name : string
  (** Stable backend name ("domains", "socket") used in results, traces
      and bench tables. *)

  type hub
  (** Shared wiring for one run, created before any node spawns. *)

  type endpoint
  (** One node's view of the hub. [send], [flush] and [recv] may be
      called by the owning node's process only. Distinct endpoints are
      safe to use concurrently. *)

  val create : ids:Ubpa_util.Node_id.t list -> hub

  val endpoint : hub -> self:Ubpa_util.Node_id.t -> endpoint
  (** @raise Invalid_argument if [self] was not in [create]'s [ids]. *)

  val send : endpoint -> dst:Ubpa_util.Node_id.t -> Frame.t -> unit
  (** Enqueue one frame for [dst]. A destination outside the hub is
      dropped silently — the simulator routes unicasts only to present
      nodes, and the runtime matches by dropping at the edge. *)

  val flush : endpoint -> (unit, error) result
  (** Frames given to {!send} reach their destinations no later than the
      next [flush]: until then a backend may hold them, so a peer's
      {!recv} need not see them. Per-edge FIFO holds across flushes. A
      failed edge does not keep the others from being flushed; the
      result names the first one. *)

  val recv :
    endpoint ->
    from:Ubpa_util.Node_id.t ->
    timeout:float ->
    (Frame.t list, error) result
  (** Frames that have reached this endpoint, per-sender FIFO (the
      property the delivery contract's same-sender ordering relies on).
      While nothing has arrived from [from], blocks for at most
      [timeout] seconds: [infinity] sets no bound and [timeout <= 0.]
      never blocks. It may return with nothing sooner (a signal, a
      wake-up meant for another peer), and a backend may also hand over
      frames of other senders that it already holds, so the caller
      re-checks what it waits for after every call. A [from] outside
      the hub is answered at once, with nothing. *)

  val close : hub -> unit
  (** Release OS resources (idempotent). Afterwards [recv], and a
      [flush] with frames pending for another node, return [Closed] at
      once without touching a released resource. *)
end
