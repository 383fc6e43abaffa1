open Ubpa_util

module Make (P : Protocol.S) = struct
  type node_round = {
    nr_inbox : (Node_id.t * P.message) list;
    nr_sends : (Envelope.dest * P.message) list;
  }

  type schedule = {
    sc_nodes : (Node_id.t * P.input) list;
    sc_rounds : node_round Node_id.Map.t list;
  }

  type divergence = { d_round : int; d_node : Node_id.t option; d_what : string }

  type outcome = {
    ok : bool;
    divergence : divergence option;
    outputs : (Node_id.t * P.output) list;
    decide_rounds : (Node_id.t * int) list;
    halted : (Node_id.t * int) list;
    missing : (Node_id.t * int) list;
    rounds : int;
    wire : Ubpa_obs.Wire.t;
  }

  let eq_dest a b =
    match (a, b) with
    | Envelope.Broadcast, Envelope.Broadcast -> true
    | Envelope.To x, Envelope.To y -> Node_id.equal x y
    | _ -> false

  let eq_inbox a b =
    List.length a = List.length b
    && List.for_all2
         (fun (sa, ma) (sb, mb) -> Node_id.equal sa sb && P.equal_message ma mb)
         a b

  let eq_sends a b =
    List.length a = List.length b
    && List.for_all2
         (fun (da, ma) (db, mb) -> eq_dest da db && P.equal_message ma mb)
         a b

  type replay_node = {
    rn_id : Node_id.t;
    mutable rn_state : P.state;
    mutable rn_first_output : int option;
    mutable rn_last_output : P.output option;
    mutable rn_halted_at : int option;
    mutable rn_missing_since : int option;
        (* delivered mode: first round the schedule stopped recording
           this node — the oracle treats it as crashed from then on. *)
  }

  (* Is [recd] a subsequence of [routed]? The greedy scan is sound
     because both lists are post-dedup (entries unique per
     (sender, payload) within a round) and sender-sorted with per-sender
     emit order preserved — skipping a routed entry can never discard a
     match a later recorded entry would have needed. *)
  let rec sub_inbox recd routed =
    match (recd, routed) with
    | [], _ -> true
    | _ :: _, [] -> false
    | (sa, ma) :: ra, (sb, mb) :: rb ->
        if Node_id.equal sa sb && P.equal_message ma mb then sub_inbox ra rb
        else sub_inbox recd rb

  let replay ?(delivered = false) (sc : schedule) : outcome =
    let nodes =
      List.map
        (fun (id, input) ->
          {
            rn_id = id;
            rn_state = P.init ~self:id ~round:1 input;
            rn_first_output = None;
            rn_last_output = None;
            rn_halted_at = None;
            rn_missing_since = None;
          })
        (List.sort (fun (a, _) (b, _) -> Node_id.compare a b) sc.sc_nodes)
    in
    let arena = Delivery.arena_create () in
    let wire = Ubpa_obs.Wire.create () in
    let divergence = ref None in
    let diverge ~round ?node what =
      if !divergence = None then
        divergence := Some { d_round = round; d_node = node; d_what = what }
    in
    let pending = ref [] in
    let rounds_executed = ref 0 in
    let rec go round = function
      | [] -> ()
      | (recorded : node_round Node_id.Map.t) :: rest ->
          rounds_executed := round;
          let live =
            List.filter
              (fun n -> n.rn_halted_at = None && n.rn_missing_since = None)
              nodes
          in
          let recorded_ids =
            Node_id.Map.fold (fun id _ acc -> id :: acc) recorded []
            |> List.rev
          in
          (if delivered then begin
             (* Delivered mode: the recorded round may legitimately be a
                sub-population (crashed processes stop recording), but it
                must stay within what the oracle considers alive — a node
                stepping after the oracle saw it halt, or reappearing
                after it vanished, is a real divergence. *)
             List.iter
               (fun id ->
                 if
                   not (List.exists (fun n -> Node_id.equal n.rn_id id) live)
                 then
                   diverge ~round ~node:id
                     "delivered schedule steps a node the oracle considers \
                      halted or crashed")
               recorded_ids;
             List.iter
               (fun n ->
                 if not (Node_id.Map.mem n.rn_id recorded) then
                   n.rn_missing_since <- Some round)
               live
           end
           else if
             (* Exact mode: the recorded round must cover exactly the
                nodes the replay still considers present: a halt the
                runtime missed (or invented) shows up here, before any
                inbox comparison. *)
             not
               (List.length recorded_ids = List.length live
               && List.for_all2
                    (fun id n -> Node_id.equal id n.rn_id)
                    recorded_ids live)
           then
             diverge ~round
               (Printf.sprintf
                  "present set mismatch: runtime stepped %d nodes, oracle expects %d"
                  (List.length recorded_ids) (List.length live)));
          let stepping =
            if delivered then
              List.filter (fun n -> Node_id.Map.mem n.rn_id recorded) live
            else live
          in
          let present =
            Node_id.Set.of_list (List.map (fun n -> n.rn_id) stepping)
          in
          let on_deliver ~recipient ~src payload =
            (* Delivered mode records the wire from what the runtime
               actually handed its protocols (below), not from what
               lockstep routing would have delivered. *)
            if not delivered then
              Ubpa_obs.Wire.record wire ~round ~sender:src ~recipient
                ~kind:"msg" ~bits:(P.encoded_bits payload)
          in
          let view =
            Delivery.route_arena ~on_deliver ~state:arena
              ~equal:P.equal_message ~present
              ~envelopes:(List.rev !pending) ()
          in
          pending := [];
          List.iter
            (fun n ->
              let routed = Delivery.view_inbox view n.rn_id in
              let nr = Node_id.Map.find_opt n.rn_id recorded in
              (match nr with
              | None -> ()
              | Some nr ->
                  if delivered then begin
                    (* Faults only ever remove deliveries (drops, holes,
                       late frames): the runtime's inbox must be a
                       sub-schedule of lockstep routing. An extra or
                       reordered message is a divergence. *)
                    if not (sub_inbox nr.nr_inbox routed) then
                      diverge ~round ~node:n.rn_id
                        (Printf.sprintf
                           "inbox not a sub-schedule: runtime delivered %d \
                            message(s), oracle routes %d"
                           (List.length nr.nr_inbox) (List.length routed));
                    List.iter
                      (fun (src, payload) ->
                        Ubpa_obs.Wire.record wire ~round ~sender:src
                          ~recipient:n.rn_id ~kind:"msg"
                          ~bits:(P.encoded_bits payload))
                      nr.nr_inbox
                  end
                  else if not (eq_inbox nr.nr_inbox routed) then
                    diverge ~round ~node:n.rn_id
                      (Printf.sprintf
                         "inbox mismatch: runtime delivered %d message(s), \
                          oracle routes %d"
                         (List.length nr.nr_inbox) (List.length routed)));
              let inbox =
                if delivered then
                  match nr with Some nr -> nr.nr_inbox | None -> routed
                else routed
              in
              let state, sends, status =
                P.step ~self:n.rn_id ~round ~stim:[] n.rn_state ~inbox
              in
              n.rn_state <- state;
              (match nr with
              | None -> ()
              | Some nr ->
                  if not (eq_sends nr.nr_sends sends) then
                    diverge ~round ~node:n.rn_id
                      (Printf.sprintf
                         "send mismatch: runtime emitted %d send(s), oracle \
                          steps to %d"
                         (List.length nr.nr_sends) (List.length sends)));
              List.iter
                (fun (dst, payload) ->
                  pending :=
                    { Envelope.src = n.rn_id; dst; payload } :: !pending)
                sends;
              match status with
              | Protocol.Continue -> ()
              | Protocol.Deliver out ->
                  if n.rn_first_output = None then
                    n.rn_first_output <- Some round;
                  n.rn_last_output <- Some out
              | Protocol.Stop out ->
                  if n.rn_first_output = None then
                    n.rn_first_output <- Some round;
                  n.rn_last_output <- Some out;
                  n.rn_halted_at <- Some round)
            stepping;
          go (round + 1) rest
    in
    go 1 sc.sc_rounds;
    {
      ok = !divergence = None;
      divergence = !divergence;
      outputs =
        List.filter_map
          (fun n -> Option.map (fun o -> (n.rn_id, o)) n.rn_last_output)
          nodes;
      decide_rounds =
        List.filter_map
          (fun n -> Option.map (fun r -> (n.rn_id, r)) n.rn_first_output)
          nodes;
      halted =
        List.filter_map
          (fun n -> Option.map (fun r -> (n.rn_id, r)) n.rn_halted_at)
          nodes;
      missing =
        List.filter_map
          (fun n -> Option.map (fun r -> (n.rn_id, r)) n.rn_missing_since)
          nodes;
      rounds = !rounds_executed;
      wire;
    }

  let pp_divergence ppf d =
    Fmt.pf ppf "round %d%a: %s" d.d_round
      (Fmt.option (fun ppf id -> Fmt.pf ppf " %a" Node_id.pp id))
      d.d_node d.d_what
end
