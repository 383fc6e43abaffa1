(** Wire accounting at the delivery hook: size each accepted record once.

    Both delivery cores invoke [on_deliver] for every recipient of a
    broadcast back to back, with the physically same payload. A meter
    remembers the last payload it sized and reuses its [encoded_bits] and
    kind while the next payload is [==] to it, so a broadcast to [k]
    recipients is sized once and charged [k] times.

    The memo keys on physical equality only. Two payloads that
    [equal_message] calls equal may still encode to different sizes, and
    hashing a payload would put a per-delivery cost back. Sizing must be a
    pure function of the message (see [Protocol.S.encoded_bits]). *)

open Ubpa_util

type 'm t

val create : encoded_bits:('m -> int) -> classify:('m -> string) -> 'm t

val record :
  'm t ->
  Ubpa_obs.Wire.t ->
  round:int ->
  recipient:Node_id.t ->
  src:Node_id.t ->
  'm ->
  int
(** Charge one accepted delivery of the payload to the accumulator and
    return its size in bits. Allocates nothing while the payload is [==]
    to the previous one. *)
