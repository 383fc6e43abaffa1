(** Byzantine node behaviour.

    A strategy is instantiated once per Byzantine node. Each round the node
    observes a {!view} — its inbox, the whole membership (Byzantine nodes are
    omniscient about who exists), and the messages the correct nodes send
    in the {e current} round (the adversary is rushing) — and emits
    arbitrary envelopes. The engine still stamps the true [src], so identity
    cannot be forged; everything else is fair game. *)

open Ubpa_util

type 'm view = {
  round : int;
  self : Node_id.t;
  correct : Node_id.t list;  (** Correct nodes currently present. *)
  byzantine : Node_id.t list;  (** Fellow Byzantine nodes (collusion). *)
  inbox : (Node_id.t * 'm) list;
  rushing : (Node_id.t * Envelope.dest * 'm) list;
      (** Messages correct nodes are sending this round. *)
  equal_message : 'm -> 'm -> bool;
      (** The protocol's message equality ({!Protocol.S.equal_message}),
          supplied by the engine so strategies that filter or dedup observed
          messages never fall back to polymorphic [=]. *)
}

type 'm t = {
  name : string;
  make : Rng.t -> Node_id.t -> 'm view -> (Envelope.dest * 'm) list;
}
(** A (named) strategy over protocol messages ['m]. The type is concrete so
    that polymorphic strategies can be written as record literals (which
    generalize, unlike {!v} applications). *)

val v :
  name:string ->
  (Rng.t -> Node_id.t -> 'm view -> (Envelope.dest * 'm) list) ->
  'm t
(** [v ~name make] wraps a behaviour. [make] receives a private generator
    and the node's own identifier when the node is created; per-node mutable
    state lives in the closure. *)

val stateful :
  name:string ->
  init:(Rng.t -> Node_id.t -> 's) ->
  act:('s -> 'm view -> (Envelope.dest * 'm) list) ->
  'm t
(** Like {!v} with explicit per-node state. *)

val name : 'm t -> string

val instantiate :
  'm t -> Rng.t -> Node_id.t -> 'm view -> (Envelope.dest * 'm) list
(** Used by the engine: bind a strategy to a concrete node. *)

val silent : 'm t
(** Never sends anything — the node is invisible unless others count it. *)
