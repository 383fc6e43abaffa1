open Ubpa_util
open Ubpa_sim

module Make (V : Value.S) = struct
  type message_view = Init | Echo of Node_id.t | Opinion of V.t
  type message = message_view

  let view m = m
  let inject m = m

  type input = V.t
  type stimulus = Protocol.No_stimulus.t

  type output = {
    selections : (int * Node_id.t) list;
    accepted_opinions : (int * Node_id.t * V.t) list;
    terminated_round : int;
  }

  type state = {
    opinion : V.t;
    core : Rotor_core.t;
    mutable heard_from : Node_id.Set.t;
    mutable local_round : int;
    mutable prev_selected : (int * Node_id.t) option;
        (** rotor round index and id of the coordinator selected last round,
            whose opinion arrives this round. *)
    mutable accepted_opinions : (int * Node_id.t * V.t) list;  (** newest first *)
  }

  let name = "rotor-coordinator"

  let init ~self:_ ~round:_ ~index opinion =
    {
      opinion;
      core = Rotor_core.create ~index ();
      heard_from = Node_id.Set.empty;
      local_round = 0;
      prev_selected = None;
      accepted_opinions = [];
    }

  let pp_message ppf = function
    | Init -> Fmt.string ppf "init"
    | Echo p -> Fmt.pf ppf "echo(%a)" Node_id.pp p
    | Opinion x -> Fmt.pf ppf "opinion(%a)" V.pp x

  let compare_message a b =
    match (a, b) with
    | Init, Init -> 0
    | Init, (Echo _ | Opinion _) -> -1
    | (Echo _ | Opinion _), Init -> 1
    | Echo p, Echo q -> Node_id.compare p q
    | Echo _, Opinion _ -> -1
    | Opinion _, Echo _ -> 1
    | Opinion x, Opinion y -> V.compare x y

  let equal_message a b = compare_message a b = 0
  let encoded_bits = Protocol.structural_bits

  let note_senders st inbox =
    List.iter
      (fun (src, _) -> st.heard_from <- Node_id.Set.add src st.heard_from)
      inbox

  let step ~self ~round ~stim:_ st ~inbox =
    st.local_round <- st.local_round + 1;
    note_senders st inbox;
    let n_v = Node_id.Set.cardinal st.heard_from in
    match st.local_round with
    | 1 -> (st, [ (Envelope.Broadcast, Init) ], Protocol.Continue)
    | 2 ->
        let sends =
          List.filter_map
            (fun (src, msg) ->
              match msg with
              | Init -> Some (Envelope.Broadcast, Echo src)
              | Echo _ | Opinion _ -> None)
            inbox
        in
        (st, sends, Protocol.Continue)
    | _ ->
        (* Accept the opinion of the coordinator selected in the previous
           round, if it arrived (Algorithm 2, line "opnac"). *)
        (match st.prev_selected with
        | None -> ()
        | Some (ridx, p') ->
            List.iter
              (fun (src, msg) ->
                match msg with
                | Opinion x when Node_id.equal src p' ->
                    st.accepted_opinions <-
                      (ridx, p', x) :: st.accepted_opinions
                | Opinion _ | Init | Echo _ -> ())
              inbox);
        let echoes =
          List.filter_map
            (fun (src, msg) ->
              match msg with
              | Echo p -> Some (src, p)
              | Init | Opinion _ -> None)
            inbox
        in
        let res = Rotor_core.rotor_round st.core ~self ~n_v ~echoes in
        if res.finished then
          ( st,
            [],
            Protocol.Stop
              {
                selections = Rotor_core.selections st.core;
                accepted_opinions = List.rev st.accepted_opinions;
                terminated_round = round;
              } )
        else begin
          st.prev_selected <-
            Option.map
              (fun p ->
                (* rotor index of this selection = last recorded entry *)
                match List.rev (Rotor_core.selections st.core) with
                | (i, _) :: _ -> (i, p)
                | [] -> (0, p))
              res.selected;
          let sends =
            List.map (fun p -> (Envelope.Broadcast, Echo p)) res.relay_echoes
          in
          let sends =
            if res.i_am_coordinator then
              (Envelope.Broadcast, Opinion st.opinion) :: sends
            else sends
          in
          (st, sends, Protocol.Continue)
        end
end
