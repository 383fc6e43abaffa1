(** Wire-level delivery accounting.

    One accumulator per network run: every envelope a delivery core
    accepts (post-dedup — a dropped duplicate never crossed the model's
    wire twice) is recorded here with its sender, recipient, round,
    message kind, and encoded size in bits. Receive-omission faults are
    applied {e after} routing, so wire counts include messages a faulty
    receiver subsequently dropped: the message was transmitted either way.

    Counters are totals plus four breakdowns — per round, per recipient
    node, per sender node, per message kind — each a [(messages, bits)]
    pair. Both directions matter for per-processor budgets: a broadcast
    costs its sender one send but every present recipient one delivery,
    while a sparse unicast fan-out (the committee protocols) bills the
    sender once per addressed peer. All delivery cores feed the same
    accumulator through the same hook, which is what makes {!equal} a
    meaningful cross-core identity check (claim-gated in experiments CX1
    and CX2, like delivery counts before it).

    A {!record} is called once per accepted delivery, so it is built to
    cost a counter update: the totals are mutable ints, and each
    breakdown is a pair of int arrays indexed by slots from an
    int-keyed {!Ubpa_util.Interner}, with the last round, sender and kind
    cached. Recording a key seen before allocates nothing and calls
    neither the polymorphic hash nor compare (about 50 ns per record on a
    2-vCPU Xeon VM). Kinds are keyed by string contents; the same
    physical kind string as the last record skips even the string
    comparison. The breakdowns are the same as with per-key hash tables:
    every reader below returns the same values in the same order. The
    caller sizes the message ([bits]), and the network's hook does that
    once per accepted record, not once per delivery. *)

open Ubpa_util

type t

type count = { msgs : int; bits : int }

val create : unit -> t

val record :
  t ->
  round:int ->
  sender:Node_id.t ->
  recipient:Node_id.t ->
  kind:string ->
  bits:int ->
  unit

val messages : t -> int
(** Total deliveries recorded (equals the sum of any breakdown). *)

val bits : t -> int
(** Total bits delivered. *)

val per_round : t -> (int * count) list
(** Ascending by round. *)

val per_node : t -> (Node_id.t * count) list
(** Ascending by recipient id. *)

val per_sender : t -> (Node_id.t * count) list
(** Ascending by sender id. A broadcast accepted by [k] recipients
    contributes [k] to its sender — wire accounting prices what actually
    crossed the wire, and a broadcast in the model is [k] point-to-point
    transmissions (see docs/OBSERVABILITY.md on sparse-send semantics). *)

val per_kind : t -> (string * count) list
(** Ascending by kind. Kinds come from the network's [classify] function;
    ["msg"] when none was given. *)

val received_by : t -> Node_id.t -> count
(** This node's recipient-side counters; zero when it never received. *)

val sent_by : t -> Node_id.t -> count
(** This node's sender-side counters; zero when it never sent. *)

val budget_of : t -> Node_id.t -> count
(** Per-node bit budget: sent plus received — the per-processor cost the
    sub-quadratic experiments (CX2) bound against √n·polylog envelopes. *)

val max_budget : t -> count
(** The largest per-node budget over every node that sent or received;
    the budget whose [bits] component is maximal. *)

val equal : t -> t -> bool
(** Totals and all four breakdowns agree. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Accepts documents written before the per-sender breakdown existed
    (their sender counters load empty). A row that repeats a key replaces
    the earlier row. *)
