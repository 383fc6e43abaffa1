(** Opinion values.

    The consensus algorithms of the paper operate on real-valued opinions
    ("We consider real number inputs here ... since we use it later for
    ordering events"). The implementation is generic in the opinion type;
    instances for the common cases live here. *)

open Ubpa_util

module type S = sig
  type t

  val compare : t -> t -> int
  val pp : t Fmt.t

  val key : Buffer.t -> t -> unit
  (** Prefix-free binary encoding ({!Ubpa_util.Key}) for canonical state
      keys: values that [compare] apart never share an encoding. *)
end

module Bool : S with type t = bool = struct
  type t = bool

  let compare = Stdlib.Bool.compare
  let pp = Fmt.bool
  let key = Key.bool
end

module Int : S with type t = int = struct
  type t = int

  let compare = Stdlib.Int.compare
  let pp = Fmt.int
  let key = Key.int
end

module Float : S with type t = float = struct
  type t = float

  let compare = Float.compare
  let pp = Fmt.float
  let key b x = Buffer.add_int64_le b (Int64.bits_of_float x)
end

module String : S with type t = string = struct
  type t = string

  let compare = Stdlib.String.compare
  let pp = Fmt.string
  let key = Key.string
end

(** Lift a value module to values-with-bottom, used by parallel consensus
    where [None] encodes the paper's ⊥ opinion. *)
module Option (V : S) : S with type t = V.t option = struct
  type t = V.t option

  let compare = Option.compare V.compare
  let pp = Fmt.option ~none:(Fmt.any "⊥") V.pp
  let key = Key.option V.key
end
