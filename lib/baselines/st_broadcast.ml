open Ubpa_util
open Ubpa_sim
open Unknown_ba

module Make (V : Value.S) = struct
  type accepted = { payload : V.t; sender : Node_id.t; accepted_round : int }
  type input = { payload : V.t option; f : int }
  type message_view = Payload of V.t | Present | Echo of V.t * Node_id.t
  type message = message_view
  type stimulus = Protocol.No_stimulus.t
  type output = accepted list

  module Pair = struct
    type t = V.t * Node_id.t

    let compare (m, s) (m', s') =
      match V.compare m m' with 0 -> Node_id.compare s s' | c -> c
  end

  module Pair_map = Map.Make (Pair)
  module Pair_tally = Tally.Make (Pair)

  type state = {
    index : Interner.t;  (** the run's sender index, shared *)
    my_payload : V.t option;
    f : int;
    mutable accepted : accepted list;
    mutable accepted_set : int Pair_map.t;
    mutable local_round : int;
  }

  let name = "st-broadcast"

  let init ~self:_ ~round:_ ~index { payload; f } =
    {
      index;
      my_payload = payload;
      f;
      accepted = [];
      accepted_set = Pair_map.empty;
      local_round = 0;
    }

  let pp_message ppf = function
    | Payload m -> Fmt.pf ppf "payload(%a)" V.pp m
    | Present -> Fmt.string ppf "present"
    | Echo (m, s) -> Fmt.pf ppf "echo(%a,%a)" V.pp m Node_id.pp s

  let compare_message a b =
    match (a, b) with
    | Payload m, Payload m' -> V.compare m m'
    | Payload _, (Present | Echo _) -> -1
    | (Present | Echo _), Payload _ -> 1
    | Present, Present -> 0
    | Present, Echo _ -> -1
    | Echo _, Present -> 1
    | Echo (m, s), Echo (m', s') -> (
        match V.compare m m' with 0 -> Node_id.compare s s' | c -> c)

  let equal_message a b = compare_message a b = 0
  let encoded_bits = Protocol.structural_bits

  let step ~self:_ ~round ~stim:_ st ~inbox =
    st.local_round <- st.local_round + 1;
    match st.local_round with
    | 1 ->
        let send =
          match st.my_payload with Some m -> Payload m | None -> Present
        in
        (st, [ (Envelope.Broadcast, send) ], Protocol.Continue)
    | 2 ->
        let sends =
          List.filter_map
            (fun (src, msg) ->
              match msg with
              | Payload m -> Some (Envelope.Broadcast, Echo (m, src))
              | Present | Echo _ -> None)
            inbox
        in
        (st, sends, Protocol.Continue)
    | _ ->
        let tally = Pair_tally.create ~index:st.index () in
        List.iter
          (fun (src, msg) ->
            match msg with
            | Echo (m, s) -> Pair_tally.add tally ~sender:src (m, s)
            | Payload _ | Present -> ())
          inbox;
        let sends = ref [] in
        let newly = ref false in
        List.iter
          (fun pair ->
            let already = Pair_map.mem pair st.accepted_set in
            let count = Pair_tally.count tally pair in
            if (not already) && count >= st.f + 1 then begin
              let m, s = pair in
              sends := (Envelope.Broadcast, Echo (m, s)) :: !sends
            end;
            if (not already) && count >= (2 * st.f) + 1 then begin
              let m, s = pair in
              st.accepted_set <- Pair_map.add pair round st.accepted_set;
              st.accepted <-
                { payload = m; sender = s; accepted_round = round }
                :: st.accepted;
              newly := true
            end)
          (Pair_tally.contents tally);
        let status =
          if !newly then Protocol.Deliver (List.rev st.accepted)
          else Protocol.Continue
        in
        (st, !sends, status)
end
