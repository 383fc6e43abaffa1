(** Byzantine renaming in the id-only model (appendix of the paper).

    Nodes carry unique but arbitrarily large identifiers; the task is to
    consistently assign every node a small name in [1..|S|]. The algorithm
    grows a set [S] of announced identifiers with reliable-broadcast-style
    echoes; once [S] has been stable for two consecutive rounds a node
    floats a [terminate(k)] vote which is itself relayed reliably, and on a
    [2n_v/3] quorum every correct node outputs the rank of each identifier
    in its (by then common) set [S]. Terminates in [O(f)] rounds.

    The appendix pseudocode contains vestigial duplicate lines; this is the
    cleaned algorithm its correctness proof (Lemma "rn-s") describes. *)

open Ubpa_util

type output = {
  names : (Node_id.t * int) list;
      (** Every renamed identifier with its 1-based rank, ascending. *)
  my_name : int;
}

type message =
  | Init
  | Echo of Node_id.t
  | Terminate of int  (** [terminate(k)]: [S] stable since round [k]. *)

include
  Ubpa_sim.Protocol.S
    with type input = unit
     and type stimulus = Ubpa_sim.Protocol.No_stimulus.t
     and type output := output
     and type message := message
