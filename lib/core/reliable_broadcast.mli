(** Reliable broadcast in the id-only model (Algorithm 1 of the paper).

    A designated node [s] broadcasts a payload [(m, s)] in the first round;
    every other correct node broadcasts [present]. Correct nodes relay
    [echo(m, s)] messages and accept [(m, s)] once [2 n_v / 3] distinct
    echoes arrive in a round, where [n_v] is the number of distinct nodes
    heard from so far. For [n > 3f] the protocol satisfies

    - {e correctness}: a correct sender's payload is accepted by every
      correct node (in round 3);
    - {e unforgeability}: a payload attributed to a correct node is only
      accepted if that node really broadcast it;
    - {e relay}: if some correct node accepts in round [r], every correct
      node accepts by round [r + 1].

    The protocol intentionally never terminates (the paper uses it as a
    subroutine inside algorithms with their own termination); drive it with
    {!Ubpa_sim.Network.Make.run_until}.

    Multiple simultaneous senders are supported: acceptance is tracked per
    [(payload, sender)] pair. *)

open Ubpa_util

module Make (V : Value.S) : sig
  type accepted = { payload : V.t; sender : Node_id.t; accepted_round : int }

  (** Message constructors are exposed so adversary strategies can forge
      protocol traffic. *)
  type message =
    | Payload of V.t  (** The sender's round-1 broadcast; src authenticates. *)
    | Present
    | Echo of V.t * Node_id.t

  (** [input] is [Some m] for a designated sender and [None] for the rest.
      [output] is the cumulative list of accepted pairs, oldest first,
      re-delivered on every new acceptance. *)
  include
    Ubpa_sim.Protocol.S
      with type input = V.t option
       and type stimulus = Ubpa_sim.Protocol.No_stimulus.t
       and type output = accepted list
       and type message := message

  val n_v : state -> int
  (** Distinct senders heard from so far, this round's included. *)

  val copy_state : state -> state
  (** Independent snapshot; stepping the copy never affects the original.
      Used by the bounded checker to branch a configuration. *)

  val state_key : state -> string
  (** Canonical id-space fingerprint as binary bytes
      ({!Ubpa_util.Key}): equal keys mean the two states
      behave identically on identical future inboxes (the [accepted] list
      is compared as a set — its order only shows up in the output list,
      never in a threshold). Feeds the checker's state-hash dedup. *)
end
