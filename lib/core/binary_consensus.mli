(** Binary consensus driven by the rotor-coordinator (the paper's original
    king-style algorithm; its full version appears in the appendix of the
    technical report).

    Unlike the early-terminating Algorithm 3 — which decides as soon as a
    [2n_v/3] strong-preference quorum forms — this algorithm runs one
    five-round phase per rotor turn and terminates exactly when the
    rotor-coordinator does, i.e. after every candidate had a turn (O(n)
    rounds). In exchange it is simpler and gives {e strong} validity for
    binary inputs: the output is always the input of some correct node.

    Phase structure (after the two rotor-initialization rounds):

    + broadcast [input(x_v)];
    + on a [2n_v/3] quorum for a value, broadcast [support(x)];
    + on [n_v/3] supports adopt [x]; remember whether a [2n_v/3] support
      quorum was seen;
    + rotor round — the selected coordinator broadcasts its opinion;
    + nodes that saw no [2n_v/3] support quorum adopt the coordinator's
      opinion.

    [n_v] is cumulative (updated every round), and there is no
    missing-message substitution: termination is rotor-driven, so the
    last phases are never starved by early deciders. *)

open Ubpa_util

type input = bool
type output = bool

type message =
  | Init
  | Cand_echo of Node_id.t
  | Input of bool
  | Support of bool
  | Opinion of bool

include
  Ubpa_sim.Protocol.S
    with type input := input
     and type stimulus = Ubpa_sim.Protocol.No_stimulus.t
     and type output := output
     and type message := message

val current_opinion : state -> bool
val phase : state -> int
