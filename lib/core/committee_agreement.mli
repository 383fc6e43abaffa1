(** Sub-quadratic Byzantine agreement by committee sampling
    (King–Saia style; "Breaking the O(n²) Bit Barrier").

    Every dense protocol in this library costs Ω(n²) bits per node; this
    one replaces all-to-all traffic with a sparse, seed-derived overlay
    that cuts each node's wire budget — sent plus received bits, see
    {!Ubpa_obs.Wire.budget_of} — by a factor of n (Θ(k²) = Θ(n) per
    member, dominated by the reused core's input-relay rounds; the full
    King–Saia construction sparsifies those too — see
    docs/SCALABILITY.md):

    + {b Committee phase}: the [⌈2√n⌉] sampled members
      ({!Committee.members}) run the unmodified early-terminating
      consensus core ({!Consensus_core.Make}) among themselves, with the
      core's broadcasts rewritten into addressed unicasts to the
      committee, so inner traffic is [O(√n)] messages per member per
      round instead of [O(n)].
    + {b Spreading phase} (almost-everywhere → everywhere): each node
      samples [≈2log₂ n] committee members as its {e attestors}
      ({!Committee.attestors}); a member that decides pushes one
      [Report] to exactly the nodes that sampled it
      ({!Committee.audience}, ≈ √n·log n unicasts) and halts. An
      observer decides on a strict majority of its attestor set; past a
      public deadline — the committee's worst-case decision round,
      arithmetic in [k] — it falls back to a deterministic plurality
      (ties to the [V.compare]-least value, its own input when no report
      arrived) so unlucky samples still terminate. The deadline gate is
      what keeps an adversary that pushes forged reports from round 1
      from ever meeting a fallback quorum before honest reports land.

    Guarantees are with high probability over the seed, against a
    non-adaptive adversary corrupting [f ≤ (1−ε)·n/3] nodes fixed before
    the seed is revealed — see docs/MODEL.md and docs/SCALABILITY.md.
    The bounded model checker does not model this protocol
    (docs/CHECKING.md): its state space is population-sized, and its
    guarantees are probabilistic rather than exhaustive. *)

open Ubpa_util

module Make (V : Value.S) : sig
  module Core : module type of Consensus_core.Make (V)

  type input = {
    value : V.t;  (** This node's opinion. *)
    seed : int64;  (** Public sampling seed, shared by every node. *)
    universe : Node_id.t list;
        (** The full identifier roster the samples are drawn over; every
            node must receive the same universe (any order, duplicates
            ignored). *)
  }

  type message = Inner of Core.message | Report of V.t

  include
    Ubpa_sim.Protocol.S
      with type input := input
       and type stimulus = Ubpa_sim.Protocol.No_stimulus.t
       and type output = V.t
       and type message := message

  val kind : message -> string
  (** Wire classification: ["inner"] for committee-internal consensus
      traffic, ["report"] for spreading-phase decision pushes. *)

  (** {2 Introspection (tests, traces)} *)

  val committee : state -> Node_id.t list
  (** The sampled committee, ascending (recomputed from public data). *)

  val decided : state -> V.t option
end
