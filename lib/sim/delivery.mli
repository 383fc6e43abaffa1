(** Per-round message delivery cores.

    Both cores implement the same delivery contract over one round's worth
    of envelopes:

    - only nodes in [present] receive anything;
    - a recipient sees at most one copy of each [(sender, payload)] pair,
      where payload equality is the protocol's [equal_message];
    - each inbox is sorted by sender id, with messages from the same sender
      kept in send order;
    - the returned count is the number of (deduplicated) deliveries, i.e.
      the total length of all inboxes.

    {!route_reference} is the seed engine's list-scan implementation, kept
    verbatim as an executable specification: the differential tests replay
    randomized traffic through both cores, and the SCALE experiment runs
    both on the same workloads. {!route_arena} is the fast core and the
    network default — a grow-only flat-arena state reused across rounds,
    with broadcasts kept as single logical records listed once per round
    and shared by every inbox, built for the n ≈ 10,000 SCALE sweeps. *)

open Ubpa_util

type impl =
  | Naive  (** Seed engine: {!route_reference}. *)
  | Arena  (** Arena state, lazy broadcast expansion (default). *)

type 'm on_deliver = recipient:Node_id.t -> src:Node_id.t -> 'm -> unit
(** Delivery-accounting hook. Every core invokes it at its accept point —
    immediately after a push survives the dedup and is counted — so a run
    observed through [on_deliver] sees exactly the deliveries the returned
    count reports, in the core's acceptance order. The network layer uses
    it to feed {!Ubpa_obs.Wire} with per-message sizes. *)

val route_reference :
  ?on_deliver:'m on_deliver ->
  equal:('m -> 'm -> bool) ->
  present:Node_id.Set.t ->
  envelopes:'m Envelope.t list ->
  unit ->
  (Node_id.t * 'm) list Node_id.Map.t * int
(** The seed engine's core: list inboxes, linear duplicate scan per push.
    Quadratic in per-recipient traffic; bit-for-bit the same result as
    {!route_arena} — including the [on_deliver] multiset, which is what
    the CX1 cross-core wire-identity claim checks. *)

type 'm arena_state
(** Arena round state: interner, presence stamps, flat record arenas and
    CSR inbox slices, all grow-only and reused across rounds, plus the
    current round's sealed broadcast list. Create one per network and
    feed it every round through {!route_arena}.

    Each seal lists the round's broadcast entries once, in (sender id,
    send order), and keeps every tail of that list; inboxes share those
    tails (see {!view_inbox}). A steady-state round allocates that list
    and, per read, only the entries before the reader's cut. Inbox lists
    are never mutated or reused, so a protocol state may keep entries
    across rounds. The next seal replaces the tails, so the state itself
    holds at most one round of lists, as it holds at most one round of
    payloads. *)

val arena_create : unit -> 'm arena_state
(** Fresh arena state, sized for 16 participants; it grows on demand. *)

type 'm view
(** One routed round, borrowed from an {!arena_state}: valid until the
    state's next {!route_arena} call (lists already read stay valid for
    good). Inboxes are assembled on demand from the sealed broadcast list
    and unicast slices; a read allocates only the entries before its
    cut, nothing for a recipient that reads the shared list whole. *)

val route_arena :
  ?on_deliver:'m on_deliver ->
  state:'m arena_state ->
  equal:('m -> 'm -> bool) ->
  present:Node_id.Set.t ->
  envelopes:'m Envelope.t list ->
  unit ->
  'm view
(** Arena entry point. Scans [envelopes] once (dedup decisions and
    [on_deliver] fire here, at the accept points), seals unicasts into
    per-recipient CSR slices, and returns the round's read view. A
    broadcast is accepted as one record and charged [|present|] minus its
    exclusions to the delivered count without fanning out; when
    [on_deliver] is present it is still invoked once per (non-excluded)
    present recipient so wire accounting sees the fan-out multiset. *)

val view_delivered : 'm view -> int
(** Total deliveries this round — same number the reference core returns. *)

val view_inbox : 'm view -> Node_id.t -> (Node_id.t * 'm) list
(** [view_inbox v id] is [id]'s inbox: the broadcast records (minus
    exclusions) merged with [id]'s unicast slice, sorted by (sender id,
    send order) exactly like the reference core's inboxes. [id]'s cut is
    the first sealed broadcast position after both its last unicast and
    the round's last record with an exclusion; from there on the result
    is the sealed list's tail itself, and only the entries before the
    cut are new cells. In a round without exclusions a recipient with no
    unicasts gets the whole sealed list and the read allocates nothing.
    Empty for absent or unknown recipients. *)

val view_present : 'm view -> Node_id.t list
(** The round's present set in ascending id order. *)

val view_to_map : 'm view -> (Node_id.t * 'm) list Node_id.Map.t
(** Every present inbox in a map — the bridge back to the reference
    core's map-shaped result, used by the differential tests. Each entry
    is what {!view_inbox} returns, so the lists share the sealed
    broadcast list as well. *)
