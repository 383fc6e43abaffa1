open Ubpa_util
open Ubpa_sim

module Make (V : Value.S) = struct
  module Core = Consensus_core.Make (V)

  type input = V.t
  type stimulus = Protocol.No_stimulus.t
  type output = V.t
  type message = Core.message

  type state = { core : Core.t; mutable decided_phase : int option }

  let name = "consensus"
  let pp_message = Core.pp_message
  let compare_message = Core.compare_message
  let equal_message = Core.equal_message
  let encoded_bits = Core.encoded_bits
  let init ~self ~round:_ ~index input =
    { core = Core.create ~self ~index ~input; decided_phase = None }

  let step ~self:_ ~round:_ ~stim:_ st ~inbox =
    let sends, status = Core.step st.core ~inbox in
    match status with
    | Core.Running -> (st, sends, Protocol.Continue)
    | Core.Decided x ->
        st.decided_phase <- Some (Core.phase st.core);
        (st, sends, Protocol.Stop x)

  let member_count st = Core.n_v st.core

  let copy_state st = { st with core = Core.copy st.core }

  let state_key st =
    Key.to_string ~size:512
      (fun b st ->
        Core.key b st.core;
        Key.option Key.int b st.decided_phase)
      st
end
