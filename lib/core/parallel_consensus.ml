open Ubpa_sim

module Make (V : Value.S) = struct
  module Core = Parallel_consensus_core.Make (V)

  type input = (int * V.t) list
  type stimulus = Protocol.No_stimulus.t
  type output = (int * V.t) list
  type message = Core.message
  type state = Core.t

  let name = "parallel-consensus"
  let pp_message = Core.pp_message
  let compare_message = Core.compare_message
  let equal_message = Core.equal_message
  let encoded_bits = Core.encoded_bits
  let init ~self ~round:_ ~index inputs = Core.create ~self ~index ~inputs ()

  let step ~self:_ ~round:_ ~stim:_ st ~inbox =
    let sends, status = Core.step st ~inbox in
    match status with
    | Core.Running -> (st, sends, Protocol.Continue)
    | Core.Done outputs -> (st, sends, Protocol.Stop outputs)
end
