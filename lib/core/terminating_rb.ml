open Ubpa_util
open Ubpa_sim

module Make (V : Value.S) = struct
  module Opt = Value.Option (V)
  module Core = Consensus_core.Make (Opt)

  type input = { sender : Node_id.t; payload : V.t option }
  type message_view = Trb_payload of V.t | Trb_init | Con of Core.message
  type message = message_view
  type stimulus = Protocol.No_stimulus.t
  type output = V.t option

  type state = {
    self : Node_id.t;
    index : Interner.t;  (** the run's sender index, shared *)
    sender : Node_id.t;
    payload : V.t option;
    mutable local_round : int;
    mutable core : Core.t option;
  }

  let name = "terminating-reliable-broadcast"

  let init ~self ~round:_ ~index ({ sender; payload } : input) =
    { self; index; sender; payload; local_round = 0; core = None }

  let pp_message ppf = function
    | Trb_payload m -> Fmt.pf ppf "payload(%a)" V.pp m
    | Trb_init -> Fmt.string ppf "init"
    | Con m -> Fmt.pf ppf "con:%a" Core.pp_message m

  let compare_message a b =
    match (a, b) with
    | Trb_payload m, Trb_payload m' -> V.compare m m'
    | Trb_payload _, (Trb_init | Con _) -> -1
    | (Trb_init | Con _), Trb_payload _ -> 1
    | Trb_init, Trb_init -> 0
    | Trb_init, Con _ -> -1
    | Con _, Trb_init -> 1
    | Con m, Con m' -> Core.compare_message m m'

  let equal_message a b = compare_message a b = 0
  let encoded_bits = Protocol.structural_bits

  let step ~self:_ ~round:_ ~stim:_ st ~inbox =
    st.local_round <- st.local_round + 1;
    match st.local_round with
    | 1 ->
        let send =
          match st.payload with
          | Some m when Node_id.equal st.self st.sender -> Trb_payload m
          | _ -> Trb_init
        in
        (st, [ (Envelope.Broadcast, send) ], Protocol.Continue)
    | _ -> (
        let core =
          match st.core with
          | Some c -> c
          | None ->
              (* Round 2: the opinion is the payload received directly from
                 the designated sender, or ⊥. *)
              let opinion =
                List.fold_left
                  (fun acc (src, msg) ->
                    match msg with
                    | Trb_payload m when Node_id.equal src st.sender -> Some m
                    | _ -> acc)
                  None inbox
              in
              let c =
                Core.create ~self:st.self ~index:st.index ~input:opinion
              in
              st.core <- Some c;
              c
        in
        let con_inbox =
          List.filter_map
            (fun (src, msg) ->
              match msg with Con m -> Some (src, m) | _ -> None)
            inbox
        in
        let sends, status = Core.step core ~inbox:con_inbox in
        let sends = List.map (fun (d, m) -> (d, Con m)) sends in
        match status with
        | Core.Running -> (st, sends, Protocol.Continue)
        | Core.Decided x -> (st, sends, Protocol.Stop x))
end
