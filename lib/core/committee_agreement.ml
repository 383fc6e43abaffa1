open Ubpa_util
open Ubpa_sim

(* Observers normally decide on a strict attestor majority; the
   plurality fallback exists only for the w.h.p.-excluded samples where
   a majority can never form. It must not fire before every correct
   attestor has had time to report — otherwise an adversary that pushes
   forged reports from round 1 would meet a fallback quorum of one — so
   it is gated on a deadline computed from public data: the inner
   consensus's worst-case decision round at committee size [k] with
   fewer than [k/3] faulty members (2 init rounds + 5·(f+1) phase
   rounds), one delivery round for the report, plus slack. *)
let fallback_deadline ~k = 2 + (5 * (((k + 2) / 3) + 1)) + 1 + 4

module Make (V : Value.S) = struct
  module Core = Consensus_core.Make (V)

  type input = { value : V.t; seed : int64; universe : Node_id.t list }
  type stimulus = Protocol.No_stimulus.t
  type output = V.t
  type message = Inner of Core.message | Report of V.t

  let name = "committee"

  let pp_message ppf = function
    | Inner m -> Fmt.pf ppf "inner:%a" Core.pp_message m
    | Report v -> Fmt.pf ppf "report:%a" V.pp v

  let compare_message a b =
    match (a, b) with
    | Inner a, Inner b -> Core.compare_message a b
    | Report a, Report b -> V.compare a b
    | Inner _, Report _ -> -1
    | Report _, Inner _ -> 1

  let equal_message a b = compare_message a b = 0

  (* Two bits of constructor tag on top of the wrapped payload's
     reference encoding — the committee overlay prices exactly what the
     dense protocols price, plus the wrapper. *)
  let encoded_bits = function
    | Inner m -> 2 + Core.encoded_bits m
    | Report v -> 2 + Protocol.structural_bits v

  let kind = function Inner _ -> "inner" | Report _ -> "report"

  type member_state = {
    core : Core.t;
    committee : Node_id.Set.t;
    committee_list : Node_id.t list;
  }

  type observer_state = {
    value : V.t;
    attestors : Node_id.Set.t;
    q : int;
    deadline : int;
    mutable reports : (Node_id.t * V.t) list;
        (** first report kept per attestor *)
  }

  type role = Member of member_state | Observer of observer_state

  type state = {
    seed : int64;
    universe : Node_id.t list;
    role : role;
    mutable decided : V.t option;
  }

  let init ~self ~round:_ ~index (input : input) =
    let universe = Node_id.sorted input.universe in
    let committee_list = Committee.members ~seed:input.seed ~universe in
    let committee = Node_id.Set.of_list committee_list in
    let role =
      if Node_id.Set.mem self committee then
        Member
          { core = Core.create ~self ~index ~input:input.value; committee;
            committee_list }
      else
        let att =
          Committee.attestors ~seed:input.seed ~universe ~self
        in
        Observer
          {
            value = input.value;
            attestors = Node_id.Set.of_list att;
            q = List.length att;
            deadline = fallback_deadline ~k:(List.length committee_list);
            reports = [];
          }
    in
    { seed = input.seed; universe; role; decided = None }

  (* The consensus core speaks in broadcasts; the overlay rewrites each
     one into k addressed unicasts — the committee plus the sender
     itself, preserving the dense engine's own-broadcast delivery — so a
     member's per-round fan-out is the committee, never the population. *)
  let to_committee (m : member_state) sends =
    List.concat_map
      (fun (dest, msg) ->
        match dest with
        | Envelope.Broadcast ->
            List.map (fun peer -> (Envelope.To peer, Inner msg))
              m.committee_list
        | Envelope.To p -> [ (Envelope.To p, Inner msg) ])
      sends

  let step_member st (m : member_state) ~self ~inbox =
    let inner_inbox =
      List.filter_map
        (fun (src, msg) ->
          match msg with
          | Inner im when Node_id.Set.mem src m.committee -> Some (src, im)
          | Inner _ | Report _ -> None)
        inbox
    in
    let sends, status = Core.step m.core ~inbox:inner_inbox in
    let sends = to_committee m sends in
    match status with
    | Core.Running -> (st, sends, Protocol.Continue)
    | Core.Decided v ->
        (* Spreading phase: push the decision to exactly the nodes that
           sampled this member as an attestor — Õ(√n) unicasts — then
           halt. Sends returned alongside [Stop] are still delivered. *)
        st.decided <- Some v;
        let listeners =
          Committee.audience ~seed:st.seed ~universe:st.universe ~member:self
        in
        let reports =
          List.map (fun o -> (Envelope.To o, Report v)) listeners
        in
        (st, sends @ reports, Protocol.Stop v)

  let tally reports =
    let rec add acc v =
      match acc with
      | [] -> [ (v, 1) ]
      | (w, c) :: rest ->
          if V.compare v w = 0 then (w, c + 1) :: rest
          else (w, c) :: add rest v
    in
    List.fold_left (fun acc (_, v) -> add acc v) [] reports

  (* Deterministic plurality: highest count, ties to the V.compare-least
     value — every correct observer with the same report multiset picks
     the same value. *)
  let plurality reports =
    match tally reports with
    | [] -> None
    | t ->
        Some
          (fst
             (List.fold_left
                (fun (bv, bc) (v, c) ->
                  if c > bc || (c = bc && V.compare v bv < 0) then (v, c)
                  else (bv, bc))
                (List.hd t) (List.tl t)))

  let step_observer st (o : observer_state) ~round ~inbox =
    List.iter
      (fun (src, msg) ->
        match msg with
        | Report v
          when Node_id.Set.mem src o.attestors
               && not (List.exists (fun (s, _) -> Node_id.equal s src) o.reports)
          ->
            o.reports <- (src, v) :: o.reports
        | Report _ | Inner _ -> ())
      inbox;
    let majority =
      List.find_opt (fun (_, c) -> 2 * c > o.q) (tally o.reports)
    in
    match majority with
    | Some (v, _) ->
        st.decided <- Some v;
        (st, [], Protocol.Stop v)
    | None when round >= o.deadline -> (
        (* Past the deadline every correct attestor has reported (the
           committee's worst-case decision round is public arithmetic in
           k), so a missing majority means an unlucky sample. Terminate
           anyway: plurality of what arrived, own input when nothing
           did — the w.h.p. caveat lives here and only here. *)
        match plurality o.reports with
        | Some v ->
            st.decided <- Some v;
            (st, [], Protocol.Stop v)
        | None ->
            st.decided <- Some o.value;
            (st, [], Protocol.Stop o.value))
    | None -> (st, [], Protocol.Continue)

  let step ~self ~round ~stim:_ st ~inbox =
    match st.role with
    | Member m -> step_member st m ~self ~inbox
    | Observer o -> step_observer st o ~round ~inbox

  (* ----- introspection (tests, traces, CLI) ----- *)

  let committee st =
    match st.role with
    | Member m -> m.committee_list
    | Observer _ -> Committee.members ~seed:st.seed ~universe:st.universe

  let decided st = st.decided
end
