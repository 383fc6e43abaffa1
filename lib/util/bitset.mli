(** Growable bitmap over small non-negative integers.

    Companion to {!Interner}: protocol sender sets (who has been heard
    from, who echoed a content, who spoke this round) are bitsets over
    the run's sender index, one bit per registered node. The arena
    delivery core uses them for its per-round sender marks. *)

type t

val create : ?hint:int -> unit -> t
(** Empty set; [hint] is the expected index bound (grows on demand).
    Protocols get theirs from {!Interner.sender_set}, sized for the
    run's sender index. *)

val mem : t -> int -> bool
(** [mem t ix] — false for any index never added, however large. *)

val add : t -> int -> unit
(** Insert [ix], growing the backing bytes if needed. Idempotent. Raises
    [Invalid_argument] on negative indices. *)

val count : t -> int
(** Number of distinct indices added. O(1). *)

val copy : t -> t
(** Independent snapshot of the set. *)

val clear : t -> unit
(** Remove every member, keeping the backing bytes at their grown size —
    the round-reuse primitive of the arena delivery core. *)

val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Fold over the member indices in ascending order. *)
