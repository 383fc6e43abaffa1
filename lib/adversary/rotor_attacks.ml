open Ubpa_sim
open Unknown_ba

module Make (V : Value.S) = struct
  module R = Rotor.Make (V)

  let take_fraction fraction l =
    let k = int_of_float (ceil (fraction *. float_of_int (List.length l))) in
    List.filteri (fun i _ -> i < k) l

  let staggered_announcer ~fraction =
    Strategy.v ~name:"rotor-staggered-announcer" (fun _rng _self view ->
        if view.Strategy.round = 1 then
          List.map
            (fun t -> (Envelope.To t, R.Init))
            (take_fraction fraction view.Strategy.correct)
        else [])

  let two_faced_coordinator a b =
    Strategy.v ~name:"rotor-two-faced-coordinator" (fun _rng _self view ->
        if view.Strategy.round = 1 then
          [ (Envelope.Broadcast, R.Init) ]
        else
          let correct = view.Strategy.correct in
          let half = List.length correct / 2 in
          List.mapi
            (fun i t ->
              let x = if i < half then a else b in
              (Envelope.To t, R.Opinion x))
            correct)

  let ghost_candidate_pusher ghosts =
    Strategy.v ~name:"rotor-ghost-pusher" (fun _rng _self view ->
        if view.Strategy.round = 1 then
          [ (Envelope.Broadcast, R.Init) ]
        else
          List.map
            (fun g -> (Envelope.Broadcast, R.Echo g))
            ghosts)
end
