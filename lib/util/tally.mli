(** Per-round tallies of who sent what.

    Algorithms in the id-only model repeatedly ask "how many distinct nodes
    sent me content [k] this round?". A tally ingests the round's inbox and
    answers per-content counts while suppressing duplicate (sender, content)
    pairs, as the model prescribes.

    [Make (K)] keys contents with a [Map] over [K.compare], so finding a
    content costs O(log contents) compares and a repeat [add] allocates
    nothing. Each content's senders are a {!Bitset} over the run's sender
    index ({!Interner}), sized from the index once. *)

module Make (K : Map.OrderedType) : sig
  type key = K.t
  type t

  val create : index:Interner.t -> unit -> t
  (** Empty tally whose sender sets are bitsets over [index]. *)

  val add : t -> sender:Node_id.t -> key -> unit
  (** Record that [sender] sent content [k]. Duplicate (sender, content)
      pairs are ignored. Raises [Invalid_argument] if [sender] is not
      registered in the index. *)

  val add_slot : t -> slot:int -> key -> unit
  (** {!add} for a sender already looked up in the index. *)

  val count : t -> key -> int
  (** Number of distinct senders that sent [k]. *)

  val senders : t -> key -> Node_id.t list
  (** The distinct senders of [k], ascending. *)

  val contents : t -> key list
  (** All contents seen, each once, the most recently first-seen first.
      Protocols send in this order, so the order shows in the delivery
      merge. *)

  val max_by_count : t -> (key * int) option
  (** Content with the highest distinct-sender count (ties broken by
      [K.compare], smallest first), or [None] if the tally is empty. *)

  val meeting : t -> threshold:(int -> bool) -> key list
  (** Contents whose distinct-sender count satisfies [threshold], in
      {!contents} order. *)
end
