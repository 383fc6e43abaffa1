(** Checker models for the core protocols (docs/CHECKING.md).

    [Rb] checks reliable broadcast over the two-value universe
    {"A", "B"}: unforgeability plus a conservative (two-round) relay
    totality. [Consensus] checks the early-terminating consensus over
    inputs {0, 1}: agreement plus unanimity validity. Both are exhaustive
    with respect to the M1 adversary palette documented in the source. *)

val universe : string list
(** The RB payload universe. *)

module Rb : Model.S with type P.input = string option

module Consensus : Model.S with type P.input = int and type P.output = int

val all : (string * (module Model.S)) list
(** The models by name, [rb] then [consensus]: the table [ubpa check
    --protocol] and the MC1 experiment pick from. *)
