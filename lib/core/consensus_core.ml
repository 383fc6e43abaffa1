open Ubpa_util
open Ubpa_sim

module Make (V : Value.S) = struct
  type message =
    | Init
    | Cand_echo of Node_id.t
    | Input of V.t
    | Prefer of V.t
    | Strongprefer of V.t
    | Opinion of V.t

  let pp_message ppf = function
    | Init -> Fmt.string ppf "init"
    | Cand_echo p -> Fmt.pf ppf "echo(%a)" Node_id.pp p
    | Input x -> Fmt.pf ppf "input(%a)" V.pp x
    | Prefer x -> Fmt.pf ppf "prefer(%a)" V.pp x
    | Strongprefer x -> Fmt.pf ppf "strongprefer(%a)" V.pp x
    | Opinion x -> Fmt.pf ppf "opinion(%a)" V.pp x

  (* Rank constructors, then compare arguments with the value's own order. *)
  let tag = function
    | Init -> 0
    | Cand_echo _ -> 1
    | Input _ -> 2
    | Prefer _ -> 3
    | Strongprefer _ -> 4
    | Opinion _ -> 5

  let compare_message a b =
    match (a, b) with
    | Init, Init -> 0
    | Cand_echo p, Cand_echo q -> Node_id.compare p q
    | Input x, Input y
    | Prefer x, Prefer y
    | Strongprefer x, Strongprefer y
    | Opinion x, Opinion y ->
        V.compare x y
    | _ -> Int.compare (tag a) (tag b)

  let equal_message a b = compare_message a b = 0
  let encoded_bits = Protocol.structural_bits

  type status = Running | Decided of V.t

  module Value_tally = Tally.Make (V)

  type t = {
    self : Node_id.t;
    index : Interner.t;  (** the run's sender index, shared *)
    rotor : Rotor_core.t;
    mutable x_v : V.t;
    mutable local_round : int;
    members : Bitset.t;
        (** slots of every sender heard from; fed until round 3, frozen
            after *)
    mutable member_slots : int array;  (** [members], ascending, at freeze *)
    mutable members_asc : Node_id.t list;  (** ascending, cached at freeze *)
    mutable n_v : int;
    mutable coordinator : Node_id.t option;
        (** selected at position 4, consulted at position 5 *)
    mutable strong_stash : (Node_id.t * V.t) list;
        (** strongprefer messages delivered at position 4, counted at 5 *)
    mutable sent_input : V.t option;  (** my broadcast at position 1 *)
    mutable sent_prefer : V.t option;  (** my broadcast at position 2 *)
    mutable sent_strong : V.t option;  (** my broadcast at position 3 *)
    mutable phase_silent : Bitset.t;
        (** members (by slot) that sent no [input] this phase —
            terminated (or byz-silent) nodes whose messages get
            substituted *)
  }

  let create ~self ~index ~input =
    {
      self;
      index;
      rotor = Rotor_core.create ~index ();
      x_v = input;
      local_round = 0;
      members = Interner.sender_set index;
      member_slots = [||];
      members_asc = [];
      n_v = 0;
      coordinator = None;
      strong_stash = [];
      sent_input = None;
      sent_prefer = None;
      sent_strong = None;
      phase_silent = Bitset.create ();
    }

  let opinion t = t.x_v
  let members t = t.members_asc
  let n_v t = t.n_v

  let copy t =
    {
      t with
      rotor = Rotor_core.copy t.rotor;
      members = Bitset.copy t.members;
      phase_silent = Bitset.copy t.phase_silent;
    }

  let ids_of t set =
    Bitset.fold set ~init:[] ~f:(fun acc s -> Interner.extern t.index s :: acc)
    |> List.sort Node_id.compare

  (* Canonical id-space fingerprint for the bounded checker's dedup.
     Set-semantics fields ([members], [phase_silent], the rotor's echo
     buffer and the strongprefer buffer — every consumer runs them through
     a tally whose thresholds and deterministic tie-break are
     insertion-order free) are written as sorted ids; everything else is
     written verbatim. *)
  let key b t =
    let members = ids_of t t.members in
    let silent = ids_of t t.phase_silent in
    let stash =
      List.sort
        (fun (a, x) (b, y) ->
          match Node_id.compare a b with 0 -> V.compare x y | c -> c)
        t.strong_stash
    in
    Key.int b t.local_round;
    V.key b t.x_v;
    Key.int b t.n_v;
    Key.list Key.id b members;
    Rotor_core.fingerprint b t.rotor;
    Key.option Key.id b t.coordinator;
    Key.list
      (fun b (s, x) ->
        Key.id b s;
        V.key b x)
      b stash;
    Key.option V.key b t.sent_input;
    Key.option V.key b t.sent_prefer;
    Key.option V.key b t.sent_strong;
    Key.list Key.id b silent

  let phase t =
    if t.local_round < 3 then 0 else ((t.local_round - 3) / 5) + 1

  let position t = ((t.local_round - 3) mod 5) + 1

  (* Count messages of one kind from this round's inbox. Members of
     [eligible] (a predicate over member slots) that sent nothing of this
     kind are substituted with [my_send] — the message this node itself
     sent of that kind — per the caption of Algorithm 3. Returns the tally
     and the slot set of real senders. By the time this runs, membership
     is frozen and the inbox is filtered to members. *)
  let tally_with_substitution t ~extract ~my_send ~eligible inbox =
    let tally = Value_tally.create ~index:t.index () in
    let spoke = Interner.sender_set t.index in
    List.iter
      (fun (src, msg) ->
        match extract msg with
        | Some x ->
            let slot = Interner.slot t.index src in
            Bitset.add spoke slot;
            Value_tally.add_slot tally ~slot x
        | None -> ())
      inbox;
    (match my_send with
    | None -> ()
    | Some x ->
        Array.iter
          (fun slot ->
            if eligible slot && not (Bitset.mem spoke slot) then
              Value_tally.add_slot tally ~slot x)
          t.member_slots);
    (tally, spoke)

  let echo p = Cand_echo p
  let is_init = function Init -> true | _ -> false

  let step t ~inbox =
    t.local_round <- t.local_round + 1;
    (* Membership discipline: before round 3 every sender is recorded; from
       round 3 on, messages from non-members are discarded. *)
    let inbox =
      if t.local_round <= 3 then begin
        List.iter
          (fun (src, _) -> Bitset.add t.members (Interner.slot t.index src))
          inbox;
        inbox
      end
      else
        List.filter
          (fun (src, _) -> Bitset.mem t.members (Interner.slot t.index src))
          inbox
    in
    match t.local_round with
    | (1 | 2) as local_round ->
        ( Rotor_core.opening ~local_round ~init:Init ~is_init ~echo inbox,
          Running )
    | _ -> (
        if t.local_round = 3 then begin
          (* Freeze membership: the round >= 4 filter above rejects new
             senders before they reach [members]. *)
          t.n_v <- Bitset.count t.members;
          t.member_slots <-
            Array.of_list
              (List.rev
                 (Bitset.fold t.members ~init:[] ~f:(fun acc s -> s :: acc)));
          t.members_asc <- ids_of t t.members
        end;
        List.iter
          (fun (src, msg) ->
            match msg with
            | Cand_echo p -> Rotor_core.hear t.rotor ~sender:src p
            | _ -> ())
          inbox;
        match position t with
        | 1 ->
            (* Fresh phase: broadcast the current opinion. *)
            t.sent_input <- Some t.x_v;
            t.sent_prefer <- None;
            t.sent_strong <- None;
            t.coordinator <- None;
            t.strong_stash <- [];
            ([ (Envelope.Broadcast, Input t.x_v) ], Running)
        | 2 ->
            let tally, spoke =
              tally_with_substitution t
                ~extract:(function Input x -> Some x | _ -> None)
                ~my_send:t.sent_input
                ~eligible:(fun _ -> true)
                inbox
            in
            (* Members without an input this phase are terminated (or
               byz-silent); their later messages are substituted too. *)
            let silent = Interner.sender_set t.index in
            Array.iter
              (fun slot ->
                if not (Bitset.mem spoke slot) then Bitset.add silent slot)
              t.member_slots;
            t.phase_silent <- silent;
            let sends =
              match Value_tally.max_by_count tally with
              | Some (x, count)
                when Threshold.ge_two_thirds ~count ~of_:t.n_v ->
                  t.sent_prefer <- Some x;
                  [ (Envelope.Broadcast, Prefer x) ]
              | _ -> []
            in
            (sends, Running)
        | 3 ->
            let tally, _ =
              tally_with_substitution t
                ~extract:(function Prefer x -> Some x | _ -> None)
                ~my_send:t.sent_prefer
                ~eligible:(Bitset.mem t.phase_silent)
                inbox
            in
            let sends =
              match Value_tally.max_by_count tally with
              | Some (x, count) when Threshold.ge_third ~count ~of_:t.n_v ->
                  t.x_v <- x;
                  if Threshold.ge_two_thirds ~count ~of_:t.n_v then begin
                    t.sent_strong <- Some x;
                    [ (Envelope.Broadcast, Strongprefer x) ]
                  end
                  else []
              | _ -> []
            in
            (sends, Running)
        | 4 ->
            (* Rotor round: consume buffered candidate echoes, stash the
               strongprefer messages for position 5. *)
            t.strong_stash <-
              List.filter_map
                (fun (src, msg) ->
                  match msg with Strongprefer x -> Some (src, x) | _ -> None)
                inbox;
            let turn =
              Rotor_core.turn t.rotor ~self:t.self ~n_v:t.n_v ~echo
                ~opinions:(fun () -> [ Opinion t.x_v ])
            in
            t.coordinator <- turn.selected;
            (turn.sends, Running)
        | _ ->
            (* Position 5: resolve the phase. The strongprefer tally comes
               from position 4's inbox; the coordinator's opinion arrives
               now. *)
            let tally =
              let tly = Value_tally.create ~index:t.index () in
              List.iter
                (fun (src, x) -> Value_tally.add tly ~sender:src x)
                t.strong_stash;
              (* Substitute my own strongprefer for phase-silent members. *)
              (match t.sent_strong with
              | None -> ()
              | Some x ->
                  let spoke = Interner.sender_set t.index in
                  List.iter
                    (fun (src, _) ->
                      Bitset.add spoke (Interner.slot t.index src))
                    t.strong_stash;
                  Array.iter
                    (fun slot ->
                      if
                        Bitset.mem t.phase_silent slot
                        && not (Bitset.mem spoke slot)
                      then Value_tally.add_slot tly ~slot x)
                    t.member_slots);
              tly
            in
            let coordinator_opinion =
              Rotor_core.opinion_of t.coordinator inbox ~opinion:(function
                | Opinion x -> Some x
                | _ -> None)
            in
            let best = Value_tally.max_by_count tally in
            (match best with
            | Some (x, count) when Threshold.ge_third ~count ~of_:t.n_v ->
                ignore x
            | _ -> (
                (* No value reached n_v/3 strong preferences: adopt the
                   coordinator's opinion. *)
                match coordinator_opinion with
                | Some c -> t.x_v <- c
                | None -> ()));
            let status =
              match best with
              | Some (x, count)
                when Threshold.ge_two_thirds ~count ~of_:t.n_v ->
                  Decided x
              | _ -> Running
            in
            ([], status))
end
