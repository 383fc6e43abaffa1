open Ubpa_util
open Ubpa_sim
module Int_set = Set.Make (Int)

module Make (V : Value.S) = struct
  module Pc = Parallel_consensus_core.Make (V)

  type chain_entry = { group : int; origin : Node_id.t; event : V.t }

  type chain_output = {
    logical_round : int;
    frontier : int;
    chain : chain_entry list;
  }

  type role = Genesis | Joiner
  type stimulus_view = Witness of V.t | Leave
  type stimulus = stimulus_view

  type message_view =
    | Present
    | Ack of int
    | Absent
    | Event of V.t * int
    | Group of int * Pc.message

  type message = message_view
  type input = role

  type group_state = {
    g_round : int;
    snapshot : Node_id.Set.t;
    mutable pc : Pc.t option;  (** [None] once terminated *)
    mutable results : (int * V.t) list;
    mutable frozen : bool;
  }

  type mode =
    | Handshake_sent  (** joiner: [present] broadcast, waiting for acks *)
    | Active
    | Leaving  (** [absent] broadcast; finishing outstanding groups *)

  type state = {
    self : Node_id.t;
    index : Interner.t;  (** the run's sender index, shared *)
    mutable mode : mode;
    mutable announced : bool;  (** broadcast [present] already *)
    mutable r : int;  (** logical round *)
    mutable s : Node_id.Set.t;  (** membership view *)
    mutable groups : group_state list;  (** descending g_round *)
    mutable last_chain : chain_entry list;
  }

  type output = chain_output

  let name = "total-order"

  let init ~self ~round:_ ~index role =
    {
      self;
      index;
      mode = (match role with Genesis -> Active | Joiner -> Handshake_sent);
      announced = false;
      r = (match role with Genesis -> 0 | Joiner -> min_int);
      s = Node_id.Set.singleton self;
      groups = [];
      last_chain = [];
    }

  let pp_message ppf = function
    | Present -> Fmt.string ppf "present"
    | Ack r -> Fmt.pf ppf "ack(%d)" r
    | Absent -> Fmt.string ppf "absent"
    | Event (m, r) -> Fmt.pf ppf "event(%a,%d)" V.pp m r
    | Group (g, m) -> Fmt.pf ppf "g%d:%a" g Pc.pp_message m

  let msg_tag = function
    | Present -> 0
    | Ack _ -> 1
    | Absent -> 2
    | Event _ -> 3
    | Group _ -> 4

  let compare_message a b =
    match (a, b) with
    | Present, Present | Absent, Absent -> 0
    | Ack r, Ack r' -> Int.compare r r'
    | Event (m, r), Event (m', r') -> (
        match V.compare m m' with 0 -> Int.compare r r' | c -> c)
    | Group (g, m), Group (g', m') -> (
        match Int.compare g g' with 0 -> Pc.compare_message m m' | c -> c)
    | _ -> Int.compare (msg_tag a) (msg_tag b)

  let equal_message a b = compare_message a b = 0
  let encoded_bits = Protocol.structural_bits

  let membership st = Node_id.Set.elements st.s
  let logical_round st = st.r

  (* A round r' is final once r - r' > 5|S|/2 + 2, i.e. 2(r-r') > 5|S|+4. *)
  let is_time_final ~now g = 2 * (now - g.g_round) > (5 * Node_id.Set.cardinal g.snapshot) + 4

  let pc_decided_values pc =
    List.filter_map
      (fun (id, o) -> Option.map (fun v -> (id, v)) o)
      (Pc.decided pc)

  let freeze g =
    if not g.frozen then begin
      g.frozen <- true;
      match g.pc with
      | Some pc when g.results = [] -> g.results <- pc_decided_values pc
      | _ -> ()
    end

  let chain_of st =
    let final_groups =
      List.filter (fun g -> g.frozen) st.groups |> List.rev
      (* st.groups is descending; rev gives ascending rounds *)
    in
    List.concat_map
      (fun g ->
        List.map
          (fun (origin, event) ->
            { group = g.g_round; origin = Node_id.of_int origin; event })
          (List.sort compare g.results))
      final_groups

  (* Step every live group's parallel-consensus machine with its share of
     the inbox; returns the sends. *)
  let step_groups st ~inbox =
    List.concat_map
      (fun g ->
        match g.pc with
        | None -> []
        | Some pc ->
            let group_inbox =
              List.filter_map
                (fun (src, msg) ->
                  match msg with
                  | Group (g', m) when g' = g.g_round -> Some (src, m)
                  | _ -> None)
                inbox
            in
            let sends, status = Pc.step pc ~inbox:group_inbox in
            (match status with
            | Pc.Running -> ()
            | Pc.Done outputs ->
                if not g.frozen then g.results <- outputs;
                g.pc <- None);
            List.map
              (fun (dest, m) -> (dest, Group (g.g_round, m)))
              sends)
      st.groups

  let frontier st =
    (* Largest round R such that every group with g_round <= R is frozen;
       groups are contiguous per round from this node's first group. *)
    let ascending = List.rev st.groups in
    let rec scan acc = function
      | [] -> acc
      | g :: rest -> if g.frozen then scan g.g_round rest else acc
    in
    scan min_int ascending

  let step ~self:_ ~round:_ ~stim st ~inbox =
    match st.mode with
    | Handshake_sent when st.r = min_int ->
        (* Joiner's first activity: announce. *)
        st.announced <- true;
        st.r <- -1;
        (st, [ (Envelope.Broadcast, Present) ], Protocol.Continue)
    | Handshake_sent when st.r = -1 ->
        (* The [present] reaches participants this round; their acks arrive
           next round. *)
        st.r <- -2;
        (st, [], Protocol.Continue)
    | Handshake_sent ->
        (* Collect (ack, r) replies; adopt the plurality round. *)
        let tally = Hashtbl.create 7 in
        let senders = ref Node_id.Set.empty in
        List.iter
          (fun (src, msg) ->
            match msg with
            | Ack r0 ->
                senders := Node_id.Set.add src !senders;
                Hashtbl.replace tally r0
                  (1 + Option.value ~default:0 (Hashtbl.find_opt tally r0))
            | _ -> ())
          inbox;
        let best =
          Hashtbl.fold
            (fun r0 c acc ->
              match acc with
              | Some (_, c') when c' >= c -> acc
              | _ -> Some (r0, c))
            tally None
        in
        (match best with
        | None -> () (* nobody answered; retry by staying in handshake *)
        | Some (r0, _) ->
            st.r <- r0 + 1;
            st.s <- Node_id.Set.add st.self !senders;
            st.mode <- Active);
        if st.mode = Active then begin
          (* First active round: start an (empty-input) group for it. *)
          let pc =
            Pc.create ~restrict:st.s ~self:st.self ~index:st.index ~inputs:[]
              ()
          in
          st.groups <-
            { g_round = st.r; snapshot = st.s; pc = Some pc; results = []; frozen = false }
            :: st.groups;
          let sends = step_groups st ~inbox:[] in
          ( st,
            sends,
            Protocol.Deliver
              { logical_round = st.r; frontier = min_int; chain = [] } )
        end
        else begin
          (* Nobody answered: re-announce and wait again. *)
          st.r <- -1;
          (st, [ (Envelope.Broadcast, Present) ], Protocol.Continue)
        end
    | Active | Leaving ->
        st.r <- st.r + 1;
        let sends = ref [] in
        let push s = sends := s :: !sends in
        (* Genesis nodes announce themselves in their first round so that
           every participant's S converges on the initial population. *)
        if not st.announced then begin
          st.announced <- true;
          push (Envelope.Broadcast, Present)
        end;
        (* Membership traffic. *)
        List.iter
          (fun (src, msg) ->
            match msg with
            | Present ->
                st.s <- Node_id.Set.add src st.s;
                push (Envelope.To src, Ack st.r)
            | Absent -> st.s <- Node_id.Set.remove src st.s
            | Ack _ | Event _ | Group _ -> ())
          inbox;
        (* Events of the previous logical round become this group's input
           pairs, keyed by the witnessing node's identifier. *)
        let event_inputs =
          List.filter_map
            (fun (src, msg) ->
              match msg with
              | Event (m, r') when r' = st.r - 1 && Node_id.Set.mem src st.s ->
                  Some (Node_id.to_int src, m)
              | _ -> None)
            inbox
        in
        (* A node reports at most one event per round; keep the first. *)
        let event_inputs =
          let seen = ref Int_set.empty in
          List.filter
            (fun (id, _) ->
              if Int_set.mem id !seen then false
              else begin
                seen := Int_set.add id !seen;
                true
              end)
            event_inputs
        in
        (* Own witnessed events and leave requests. *)
        List.iter
          (fun s ->
            match s with
            | Witness m when st.mode = Active ->
                push (Envelope.Broadcast, Event (m, st.r))
            | Witness _ -> ()
            | Leave ->
                if st.mode = Active then begin
                  st.mode <- Leaving;
                  push (Envelope.Broadcast, Absent)
                end)
          stim;
        (* Start this round's group (only while an active participant). *)
        if st.mode = Active then begin
          let pc =
            Pc.create ~restrict:st.s ~self:st.self ~index:st.index
              ~inputs:event_inputs ()
          in
          st.groups <-
            {
              g_round = st.r;
              snapshot = st.s;
              pc = Some pc;
              results = [];
              frozen = false;
            }
            :: st.groups
        end;
        (* Step all outstanding groups. *)
        let group_sends = step_groups st ~inbox in
        (* Finality. *)
        List.iter
          (fun g -> if is_time_final ~now:st.r g then freeze g)
          st.groups;
        let chain = chain_of st in
        let out =
          { logical_round = st.r; frontier = frontier st; chain }
        in
        let changed = chain <> st.last_chain in
        st.last_chain <- chain;
        let all_sends = group_sends @ List.rev !sends in
        if st.mode = Leaving && List.for_all (fun g -> g.pc = None) st.groups
        then (st, all_sends, Protocol.Stop out)
        else if changed then (st, all_sends, Protocol.Deliver out)
        else (st, all_sends, Protocol.Continue)
end
