(** Binary writers for canonical keys.

    The bounded checker deduplicates configurations by exact key equality,
    so two keys may be equal only when the values they encode are. Every
    writer here is prefix-free — no encoding is a proper prefix of another
    encoding of the same type — and sequencing prefix-free writers keeps
    the whole key prefix-free, hence decodable and exact. Keys are opaque
    bytes: they are compared and hashed, never printed. *)

val int : Buffer.t -> int -> unit
(** Zigzag LEB128: the sign folded into the low bit, then seven bits per
    byte, least significant first, the high bit set on every byte but the
    last. One byte for [-64 <= i < 64], two for [-8192 <= i < 8192], and
    at most nine ([max_int], [min_int]). The code is injective and
    prefix-free, so string lengths and list counts use it too. *)

val id : Buffer.t -> Node_id.t -> unit
(** As {!int}: five bytes for the 30-bit ids of {!Node_id.scatter}. *)

val tag : Buffer.t -> int -> unit
(** One byte; [0 <= tag < 256]. Distinguishes constructors. *)

val bool : Buffer.t -> bool -> unit
(** A tag: 0 or 1. *)

val string : Buffer.t -> string -> unit
(** Length, then the bytes. *)

val list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
(** Element count, then the elements in order. *)

val option : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
(** Tag 0 for [None]; tag 1, then the value, for [Some]. *)

val to_string : ?size:int -> (Buffer.t -> 'a -> unit) -> 'a -> string
(** [to_string w x] is [w]'s encoding of [x] as a fresh string. *)
