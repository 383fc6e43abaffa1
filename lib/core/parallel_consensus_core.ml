open Ubpa_util
open Ubpa_sim

module Make (V : Value.S) = struct
  type opinion = V.t option

  type body =
    | Input of opinion
    | Prefer of opinion
    | Strongprefer of opinion
    | Nopreference
    | Nostrongpreference
    | Opinion of opinion

  type message = Init | Cand_echo of Node_id.t | Inst of int * body

  let pp_opinion : opinion Fmt.t = Fmt.option ~none:(Fmt.any "_|_") V.pp

  let pp_body ppf = function
    | Input o -> Fmt.pf ppf "input(%a)" pp_opinion o
    | Prefer o -> Fmt.pf ppf "prefer(%a)" pp_opinion o
    | Strongprefer o -> Fmt.pf ppf "strongprefer(%a)" pp_opinion o
    | Nopreference -> Fmt.string ppf "nopreference"
    | Nostrongpreference -> Fmt.string ppf "nostrongpreference"
    | Opinion o -> Fmt.pf ppf "opinion(%a)" pp_opinion o

  let pp_message ppf = function
    | Init -> Fmt.string ppf "init"
    | Cand_echo p -> Fmt.pf ppf "echo(%a)" Node_id.pp p
    | Inst (id, body) -> Fmt.pf ppf "%d:%a" id pp_body body

  type status = Running | Done of (int * V.t) list

  let compare_opinion = Option.compare V.compare

  let body_tag = function
    | Input _ -> 0
    | Prefer _ -> 1
    | Strongprefer _ -> 2
    | Nopreference -> 3
    | Nostrongpreference -> 4
    | Opinion _ -> 5

  let compare_body a b =
    match (a, b) with
    | Input x, Input y | Prefer x, Prefer y | Strongprefer x, Strongprefer y
    | Opinion x, Opinion y ->
        compare_opinion x y
    | Nopreference, Nopreference | Nostrongpreference, Nostrongpreference -> 0
    | _ -> Int.compare (body_tag a) (body_tag b)

  let compare_message a b =
    match (a, b) with
    | Init, Init -> 0
    | Init, (Cand_echo _ | Inst _) -> -1
    | (Cand_echo _ | Inst _), Init -> 1
    | Cand_echo p, Cand_echo q -> Node_id.compare p q
    | Cand_echo _, Inst _ -> -1
    | Inst _, Cand_echo _ -> 1
    | Inst (i, x), Inst (j, y) -> (
        match Int.compare i j with 0 -> compare_body x y | c -> c)

  let equal_message a b = compare_message a b = 0
  let encoded_bits = Protocol.structural_bits

  type inst = {
    inst_id : int;
    mutable x : opinion;
    has_real_input : bool;
    mutable terminated : opinion option;  (** [Some d]: decided [d] *)
    mutable sent_input : opinion option;  (** last [Input] body broadcast *)
    mutable sent_prefer : opinion option;
    mutable sent_strong : opinion option;
    mutable strong_stash :
      (Node_id.t * [ `Strong of opinion | `Marker ]) list;
  }

  module Opinion_tally = Tally.Make (struct
    type t = opinion

    let compare = compare_opinion
  end)

  type t = {
    self : Node_id.t;
    index : Interner.t;  (** the run's sender index, shared *)
    restrict : Node_id.Set.t option;
    rotor : Rotor_core.t;
    mutable local_round : int;
    mutable heard_from : Node_id.Set.t;
    mutable members : Node_id.Set.t;
    mutable n_v : int;
    mutable coordinator : Node_id.t option;
    mutable insts : inst list;  (** ascending instance id *)
  }

  let fresh_inst ?(has_real_input = false) ~x inst_id =
    {
      inst_id;
      x;
      has_real_input;
      terminated = None;
      sent_input = None;
      sent_prefer = None;
      sent_strong = None;
      strong_stash = [];
    }

  let create ?restrict ~self ~index ~inputs () =
    let ids = List.map fst inputs in
    if List.length (List.sort_uniq Int.compare ids) <> List.length ids then
      invalid_arg "Parallel_consensus_core: duplicate instance identifiers";
    {
      self;
      index;
      restrict;
      rotor = Rotor_core.create ~index ();
      local_round = 0;
      heard_from = Node_id.Set.empty;
      members = Node_id.Set.empty;
      n_v = 0;
      coordinator = None;
      insts =
        List.sort
          (fun a b -> Int.compare a.inst_id b.inst_id)
          (List.map
             (fun (id, x) -> fresh_inst ~has_real_input:true ~x:(Some x) id)
             inputs);
    }

  let instances t = List.map (fun i -> i.inst_id) t.insts

  let decided t =
    List.filter_map
      (fun i -> Option.map (fun d -> (i.inst_id, d)) i.terminated)
      t.insts

  let members t = Node_id.Set.elements t.members

  let phase t =
    if t.local_round < 3 then 0 else ((t.local_round - 3) / 5) + 1

  let position t = ((t.local_round - 3) mod 5) + 1

  let find_inst t id = List.find_opt (fun i -> i.inst_id = id) t.insts

  let add_inst t inst =
    t.insts <-
      List.sort (fun a b -> Int.compare a.inst_id b.inst_id) (inst :: t.insts)

  let live t = List.filter (fun i -> i.terminated = None) t.insts

  (* Count one slot for one instance. [sent] are the (sender, opinion)
     pairs actually received, [markers] the senders of the slot's no-op
     marker. Silent members are filled per the phase rule. *)
  let slot_tally t ~first_phase ~my_send ~sent ~markers =
    let tally = Opinion_tally.create ~index:t.index () in
    let spoke = ref Node_id.Set.empty in
    List.iter
      (fun (src, o) ->
        spoke := Node_id.Set.add src !spoke;
        Opinion_tally.add tally ~sender:src o)
      sent;
    List.iter (fun src -> spoke := Node_id.Set.add src !spoke) markers;
    let fill = if first_phase then Some None else my_send in
    (match fill with
    | None -> ()
    | Some o ->
        Node_id.Set.iter
          (fun m -> Opinion_tally.add tally ~sender:m o)
          (Node_id.Set.diff t.members !spoke));
    tally

  (* Instance-tagged messages of this round, restricted to one body shape. *)
  let inst_bodies inbox ~id ~extract =
    List.filter_map
      (fun (src, msg) ->
        match msg with
        | Inst (id', body) when id' = id -> (
            match extract body with Some v -> Some (src, v) | None -> None)
        | _ -> None)
      inbox

  (* Identifiers appearing in this inbox with a body accepted for discovery
     at the current position. *)
  let discoveries t inbox ~extract =
    if phase t <> 1 then []
    else
      List.filter_map
        (fun (_, msg) ->
          match msg with
          | Inst (id, body) when find_inst t id = None -> (
              match extract body with Some _ -> Some id | None -> None)
          | _ -> None)
        inbox
      |> List.sort_uniq Int.compare

  let echo p = Cand_echo p
  let is_init = function Init -> true | Cand_echo _ | Inst _ -> false

  let step t ~inbox =
    t.local_round <- t.local_round + 1;
    let inbox =
      match t.restrict with
      | None -> inbox
      | Some allowed ->
          List.filter (fun (src, _) -> Node_id.Set.mem src allowed) inbox
    in
    let inbox =
      if t.local_round <= 3 then begin
        List.iter
          (fun (src, _) -> t.heard_from <- Node_id.Set.add src t.heard_from)
          inbox;
        inbox
      end
      else List.filter (fun (src, _) -> Node_id.Set.mem src t.members) inbox
    in
    match t.local_round with
    | (1 | 2) as local_round ->
        ( Rotor_core.opening ~local_round ~init:Init ~is_init ~echo inbox,
          Running )
    | _ -> (
        if t.local_round = 3 then begin
          t.members <- t.heard_from;
          t.n_v <- Node_id.Set.cardinal t.members
        end;
        List.iter
          (fun (src, msg) ->
            match msg with
            | Cand_echo p -> Rotor_core.hear t.rotor ~sender:src p
            | _ -> ())
          inbox;
        let first_phase = phase t = 1 in
        match position t with
        | 1 ->
            (* Input slot. In the first phase only real input holders with a
               non-⊥ opinion speak; later every live instance announces its
               opinion, ⊥ included (see the .mli on why). *)
            let sends =
              List.filter_map
                (fun i ->
                  let speak =
                    if first_phase then i.has_real_input && i.x <> None
                    else true
                  in
                  if speak then begin
                    i.sent_input <- Some i.x;
                    Some (Envelope.Broadcast, Inst (i.inst_id, Input i.x))
                  end
                  else begin
                    i.sent_input <- None;
                    None
                  end)
                (live t)
            in
            (sends, Running)
        | 2 ->
            List.iter
              (fun id -> add_inst t (fresh_inst ~x:None id))
              (discoveries t inbox ~extract:(function
                | Input o -> Some o
                | _ -> None));
            let sends =
              List.map
                (fun i ->
                  let sent =
                    inst_bodies inbox ~id:i.inst_id ~extract:(function
                      | Input o -> Some o
                      | _ -> None)
                  in
                  let tally =
                    slot_tally t ~first_phase ~my_send:i.sent_input ~sent
                      ~markers:[]
                  in
                  match Opinion_tally.max_by_count tally with
                  | Some (o, count)
                    when Threshold.ge_two_thirds ~count ~of_:t.n_v ->
                      i.sent_prefer <- Some o;
                      (Envelope.Broadcast, Inst (i.inst_id, Prefer o))
                  | _ ->
                      i.sent_prefer <- None;
                      (Envelope.Broadcast, Inst (i.inst_id, Nopreference)))
                (live t)
            in
            (sends, Running)
        | 3 ->
            List.iter
              (fun id -> add_inst t (fresh_inst ~x:None id))
              (discoveries t inbox ~extract:(function
                | Prefer o -> Some o
                | _ -> None));
            let sends =
              List.map
                (fun i ->
                  let sent =
                    inst_bodies inbox ~id:i.inst_id ~extract:(function
                      | Prefer o -> Some o
                      | _ -> None)
                  in
                  let markers =
                    inst_bodies inbox ~id:i.inst_id ~extract:(function
                      | Nopreference -> Some ()
                      | _ -> None)
                    |> List.map fst
                  in
                  let tally =
                    slot_tally t ~first_phase ~my_send:i.sent_prefer ~sent
                      ~markers
                  in
                  match Opinion_tally.max_by_count tally with
                  | Some (o, count) when Threshold.ge_third ~count ~of_:t.n_v
                    ->
                      i.x <- o;
                      if Threshold.ge_two_thirds ~count ~of_:t.n_v then begin
                        i.sent_strong <- Some o;
                        (Envelope.Broadcast, Inst (i.inst_id, Strongprefer o))
                      end
                      else begin
                        i.sent_strong <- None;
                        ( Envelope.Broadcast,
                          Inst (i.inst_id, Nostrongpreference) )
                      end
                  | _ ->
                      i.sent_strong <- None;
                      (Envelope.Broadcast, Inst (i.inst_id, Nostrongpreference)))
                (live t)
            in
            (sends, Running)
        | 4 ->
            (* Rotor round; also stash the strong-slot traffic (delivered
               this round, counted next) and discover instances first heard
               of through a strongprefer. *)
            List.iter
              (fun id -> add_inst t (fresh_inst ~x:None id))
              (discoveries t inbox ~extract:(function
                | Strongprefer o -> Some o
                | _ -> None));
            List.iter
              (fun i ->
                i.strong_stash <-
                  inst_bodies inbox ~id:i.inst_id ~extract:(function
                    | Strongprefer o -> Some (`Strong o)
                    | Nostrongpreference -> Some `Marker
                    | _ -> None))
              (live t);
            let turn =
              Rotor_core.turn t.rotor ~self:t.self ~n_v:t.n_v ~echo
                ~opinions:(fun () ->
                  List.map (fun i -> Inst (i.inst_id, Opinion i.x)) (live t))
            in
            t.coordinator <- turn.selected;
            (turn.sends, Running)
        | _ ->
            (* Position 5: resolve every live instance. *)
            List.iter
              (fun i ->
                let sent =
                  List.filter_map
                    (fun (src, item) ->
                      match item with
                      | `Strong o -> Some (src, o)
                      | `Marker -> None)
                    i.strong_stash
                in
                let markers =
                  List.filter_map
                    (fun (src, item) ->
                      match item with `Marker -> Some src | `Strong _ -> None)
                    i.strong_stash
                in
                i.strong_stash <- [];
                let tally =
                  slot_tally t ~first_phase ~my_send:i.sent_strong ~sent
                    ~markers
                in
                let coordinator_opinion =
                  Rotor_core.opinion_of t.coordinator inbox ~opinion:(function
                    | Inst (id, Opinion c) when id = i.inst_id -> Some c
                    | _ -> None)
                in
                let best = Opinion_tally.max_by_count tally in
                (match best with
                | Some (_, count) when Threshold.ge_third ~count ~of_:t.n_v ->
                    ()
                | _ -> (
                    match coordinator_opinion with
                    | Some c -> i.x <- c
                    | None -> ()));
                match best with
                | Some (o, count)
                  when Threshold.ge_two_thirds ~count ~of_:t.n_v ->
                    i.terminated <- Some o
                | _ -> ())
              (live t);
            let status =
              if live t = [] then
                Done
                  (List.filter_map
                     (fun i ->
                       match i.terminated with
                       | Some (Some d) -> Some (i.inst_id, d)
                       | _ -> None)
                     t.insts)
              else Running
            in
            ([], status))
end
