open Ubpa_sim
open Unknown_ba

module Make (V : Value.S) = struct
  module Rb = Reliable_broadcast.Make (V)

  let take_fraction fraction l =
    let k =
      int_of_float (ceil (fraction *. float_of_int (List.length l)))
    in
    List.filteri (fun i _ -> i < k) l

  let equivocating_sender m1 m2 =
    Strategy.v ~name:"rb-equivocating-sender" (fun _rng _self view ->
        if view.Strategy.round <> 1 then []
        else
          let correct = view.Strategy.correct in
          let half = List.length correct / 2 in
          List.mapi
            (fun i t ->
              let m = if i < half then m1 else m2 in
              (Envelope.To t, Rb.Payload m))
            correct)

  let partial_sender m ~fraction =
    Strategy.v ~name:"rb-partial-sender" (fun _rng _self view ->
        if view.Strategy.round <> 1 then []
        else
          List.map
            (fun t -> (Envelope.To t, Rb.Payload m))
            (take_fraction fraction view.Strategy.correct))

  let forging_echoer m ~claimed =
    Strategy.v ~name:"rb-forging-echoer" (fun _rng _self view ->
        if view.Strategy.round = 1 then
          (* Stay counted in n_v. *)
          [ (Envelope.Broadcast, Rb.Present) ]
        else [ (Envelope.Broadcast, Rb.Echo (m, claimed)) ])

  let echo_amplifier =
    Strategy.v ~name:"rb-echo-amplifier" (fun _rng _self view ->
        let echoes =
          List.filter_map
            (fun (_, msg) ->
              match msg with
              | Rb.Echo (m, s) -> Some (Rb.Echo (m, s))
              | _ -> None)
            view.Strategy.inbox
        in
        if view.Strategy.round = 1 then
          [ (Envelope.Broadcast, Rb.Present) ]
        else List.map (fun e -> (Envelope.Broadcast, e)) echoes)
end
