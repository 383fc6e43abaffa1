(** The transport seam of the networked runtime.

    A transport moves encoded {!Frame.t}s between node endpoints; the
    round structure, delivery semantics (dedup, sender-sorted inboxes,
    halt handling) and all accounting live {e above} this interface in
    {!Runner}, so every backend automatically inherits the simulator's
    delivery contract. Two backends ship: {!Transport_domains}
    (in-process mailboxes between node threads) and
    {!Transport_socket} (a full mesh of Unix-domain socketpairs with
    length-prefixed stream framing).

    This is the only copy of the signature: {!Transport_faulty.S}
    includes it. *)

module type S = sig
  val name : string
  (** Stable backend name ("domains", "socket") used in results, traces
      and bench tables. *)

  type hub
  (** Shared wiring for one run, created before any node spawns. *)

  type endpoint
  (** One node's view of the hub. [send] and [flush] may be called by
      the owning node's process only; likewise [drain]. Distinct
      endpoints are safe to use concurrently. *)

  val create : ids:Ubpa_util.Node_id.t list -> hub

  val endpoint : hub -> self:Ubpa_util.Node_id.t -> endpoint
  (** @raise Invalid_argument if [self] was not in [create]'s [ids]. *)

  val send : endpoint -> dst:Ubpa_util.Node_id.t -> Frame.t -> unit
  (** Enqueue one frame for [dst]. A destination outside the hub is
      dropped silently — the simulator routes unicasts only to present
      nodes, and the runtime matches by dropping at the edge. *)

  val flush : endpoint -> unit
  (** Frames given to {!send} reach their destinations no later than the
      next [flush]: until then a backend may hold them, so a peer's
      {!drain} need not see them. Per-edge FIFO holds across flushes. *)

  val drain : endpoint -> Frame.t list
  (** Everything received so far, per-sender FIFO (the property the
      delivery contract's same-sender ordering relies on); cross-sender
      interleaving is unspecified because {!Runner} sorts by sender
      anyway. Never blocks. *)

  val close : hub -> unit
  (** Release OS resources (idempotent). *)
end
