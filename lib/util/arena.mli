(** Grow-only scratch buffers reused across rounds.

    The arena delivery core keys one round's records into flat arrays
    and throws the {e contents} away every round while keeping the
    {e storage}: {!clear} drops the length back to zero without freeing,
    so a steady-state round allocates nothing in the arena no matter how
    many messages pass through it. Companion to {!Interner} (dense
    indices) and {!Bitset} (dense member sets).

    An arena is single-owner mutable state — exactly like [Buffer] — and
    values read out of it are only valid until the next {!clear}. *)

type 'a t

val create : ?hint:int -> dummy:'a -> unit -> 'a t
(** Empty arena backed by [hint] preallocated slots (grows on demand).
    [dummy] fills unused capacity; it is never observable through
    {!get}. *)

val length : 'a t -> int
val capacity : 'a t -> int

val clear : 'a t -> unit
(** Forget the contents, keep the storage. Slots retain their old values
    (and thus keep them live for the GC) until overwritten; use {!reset}
    when the elements are heap blocks that must be released eagerly. *)

val reset : 'a t -> unit
(** {!clear} plus overwriting every used slot with [dummy], releasing the
    old elements to the GC. *)

val push : 'a t -> 'a -> unit
(** Append, doubling the backing array when full (amortized O(1),
    allocation-free once capacity has grown to the working set). *)

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] outside [0 .. length - 1]. *)

val set : 'a t -> int -> 'a -> unit

val unsafe_get : 'a t -> int -> 'a
(** No bounds check; the hot-loop read for indices already validated. *)

val iteri : 'a t -> (int -> 'a -> unit) -> unit
val fold : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b
