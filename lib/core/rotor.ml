open Ubpa_util
open Ubpa_sim

module Make (V : Value.S) = struct
  type message = Init | Echo of Node_id.t | Opinion of V.t

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

  let echo p = Echo p
  let is_init = function Init -> true | Echo _ | Opinion _ -> false

  let step ~self ~round ~stim:_ st ~inbox =
    st.local_round <- st.local_round + 1;
    note_senders st inbox;
    let n_v = Node_id.Set.cardinal st.heard_from in
    match st.local_round with
    | (1 | 2) as local_round ->
        ( st,
          Rotor_core.opening ~local_round ~init:Init ~is_init ~echo inbox,
          Protocol.Continue )
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
        (* Heard in reverse, so the turn hands this round's echoes to the
           tally in inbox order. *)
        List.iter
          (fun (src, msg) ->
            match msg with
            | Echo p -> Rotor_core.hear st.core ~sender:src p
            | Init | Opinion _ -> ())
          (List.rev inbox);
        let turn =
          Rotor_core.turn st.core ~self ~n_v ~echo ~opinions:(fun () ->
              [ Opinion st.opinion ])
        in
        if turn.finished then
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
            Option.map (fun p -> (turn.loop_index, p)) turn.selected;
          (st, turn.sends, Protocol.Continue)
        end
end
