open Ubpa_util
open Ubpa_sim

module Make (V : Value.S) = struct
  type accepted = { payload : V.t; sender : Node_id.t; accepted_round : int }

  type message = Payload of V.t | Present | Echo of V.t * Node_id.t

  type input = V.t option
  type stimulus = Protocol.No_stimulus.t
  type output = accepted list

  (* Keyed acceptance state per (payload, sender). *)
  module Pair = struct
    type t = V.t * Node_id.t

    let compare (m, s) (m', s') =
      match V.compare m m' with 0 -> Node_id.compare s s' | c -> c
  end

  module Pair_map = Map.Make (Pair)

  type state = {
    index : Interner.t;  (** the run's sender index, shared *)
    my_payload : V.t option;
    heard_from : Bitset.t;  (** slots of the senders seen so far; count = n_v *)
    mutable accepted : accepted list;  (** newest first *)
    mutable accepted_set : int Pair_map.t;  (** pair -> accept round *)
    mutable local_round : int;  (** rounds since this node joined, from 1 *)
  }

  let name = "reliable-broadcast"

  let n_v st = Bitset.count st.heard_from
  let copy_state st = { st with heard_from = Bitset.copy st.heard_from }

  (* Canonical id-space fingerprint. [heard_from] is a set (only its count
     and membership feed the dynamics), so it is externed and sorted; the
     [accepted] list is sorted by pair because its order only affects the
     order of entries inside the output list, never a tally or threshold —
     equal keys therefore mean equal behavior on equal future inboxes. *)
  let state_key st =
    let heard =
      Bitset.fold st.heard_from ~init:[] ~f:(fun acc s ->
          Interner.extern st.index s :: acc)
      |> List.sort Node_id.compare
    in
    let acc =
      List.sort
        (fun a b -> Pair.compare (a.payload, a.sender) (b.payload, b.sender))
        st.accepted
    in
    Key.to_string ~size:256
      (fun b st ->
        Key.int b st.local_round;
        Key.option V.key b st.my_payload;
        Key.list Key.id b heard;
        Key.list
          (fun b a ->
            V.key b a.payload;
            Key.id b a.sender;
            Key.int b a.accepted_round)
          b acc)
      st

  let init ~self:_ ~round:_ ~index input =
    {
      index;
      my_payload = input;
      heard_from = Interner.sender_set index;
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

  (* Keyed by the echo message itself: on [Echo]s [compare_message] is
     [Pair.compare], and counting the received value allocates nothing. *)
  module Echo_tally = Tally.Make (struct
    type t = message

    let compare = compare_message
  end)

  let note_sender st src =
    let s = Interner.slot st.index src in
    Bitset.add st.heard_from s;
    s

  let note_senders st inbox =
    List.iter (fun (src, _) -> ignore (note_sender st src)) inbox

  let step ~self:_ ~round ~stim:_ st ~inbox =
    st.local_round <- st.local_round + 1;
    match st.local_round with
    | 1 ->
        (* Round 1: designated senders broadcast their payload, everyone
           else announces presence so that n_v >= g at every node. *)
        note_senders st inbox;
        let send =
          match st.my_payload with
          | Some m -> Payload m
          | None -> Present
        in
        (st, [ (Envelope.Broadcast, send) ], Protocol.Continue)
    | 2 ->
        (* Round 2: echo payloads received directly from their sender. *)
        note_senders st inbox;
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
        (* Rounds >= 3: per-round echo tallies against n_v thresholds,
           n_v counting this round's senders too. *)
        let tally = Echo_tally.create ~index:st.index () in
        List.iter
          (fun (src, msg) ->
            let slot = note_sender st src in
            match msg with
            | Echo _ -> Echo_tally.add_slot tally ~slot msg
            | Payload _ | Present -> ())
          inbox;
        let n_v = Bitset.count st.heard_from in
        let sends = ref [] in
        let newly_accepted = ref false in
        List.iter
          (fun echo ->
            match echo with
            | Payload _ | Present -> ()
            | Echo (m, s) ->
                let pair = (m, s) in
                let already = Pair_map.mem pair st.accepted_set in
                let count = Echo_tally.count tally echo in
                if (not already) && Threshold.ge_third ~count ~of_:n_v then
                  sends := (Envelope.Broadcast, echo) :: !sends;
                if (not already) && Threshold.ge_two_thirds ~count ~of_:n_v
                then begin
                  st.accepted_set <- Pair_map.add pair round st.accepted_set;
                  st.accepted <-
                    { payload = m; sender = s; accepted_round = round }
                    :: st.accepted;
                  newly_accepted := true
                end)
          (Echo_tally.contents tally);
        let status =
          if !newly_accepted then Protocol.Deliver (List.rev st.accepted)
          else Protocol.Continue
        in
        (st, !sends, status)
end
