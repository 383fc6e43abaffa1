open Ubpa_util

module Make (P : Protocol.S) = struct
  module K = Kernel.Make (P)

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

  let eq_inbox =
    List.equal (fun (sa, ma) (sb, mb) ->
        Node_id.equal sa sb && P.equal_message ma mb)

  let eq_sends =
    List.equal (fun (da, ma) (db, mb) -> eq_dest da db && P.equal_message ma mb)

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
    let index = Interner.of_ids (List.map fst sc.sc_nodes) in
    let ascending =
      List.sort (fun (a, _) (b, _) -> Node_id.compare a b) sc.sc_nodes
    in
    let k =
      K.create
        (Array.of_list
           (List.map
              (fun (id, input) -> K.node ~index ~round:1 id input)
              ascending))
    in
    let arena = Delivery.arena_create () in
    let wire = Ubpa_obs.Wire.create () in
    let meter =
      Wire_meter.create ~encoded_bits:P.encoded_bits ~classify:(fun _ -> "msg")
    in
    let divergence = ref None in
    let diverge ~round ?node what =
      if !divergence = None then
        divergence := Some { d_round = round; d_node = node; d_what = what }
    in
    let replay_round recorded =
      k.round <- k.round + 1;
      let round = k.round in
      let live = K.active_ids k in
      let recorded_ids =
        Node_id.Map.fold (fun id _ acc -> id :: acc) recorded [] |> List.rev
      in
      if delivered then begin
        (* Delivered mode: the recorded round may legitimately be a
           sub-population (crashed processes stop recording), but it must
           stay within what the oracle considers alive — a node stepping
           after the oracle saw it halt, or reappearing after it vanished,
           is a real divergence. A live node the round does not record is
           down from here on. *)
        List.iter
          (fun id ->
            if not (List.exists (Node_id.equal id) live) then
              diverge ~round ~node:id
                "delivered schedule steps a node the oracle considers \
                 halted or crashed")
          recorded_ids;
        Array.iter
          (fun (n : K.node) ->
            if K.active n && not (Node_id.Map.mem n.id recorded) then
              n.down_since <- Some round)
          k.nodes
      end
      else if not (List.equal Node_id.equal recorded_ids live) then
        (* Exact mode: the recorded round must cover exactly the nodes the
           replay still considers present: a halt the runtime missed (or
           invented) shows up here, before any inbox comparison. *)
        diverge ~round
          (Printf.sprintf
             "present set mismatch: runtime stepped %d nodes, oracle expects %d"
             (List.length recorded_ids) (List.length live));
      let on_deliver ~recipient ~src payload =
        (* Delivered mode records the wire from what the runtime actually
           handed its protocols (below), not from what lockstep routing
           would have delivered. *)
        if not delivered then
          ignore
            (Wire_meter.record meter wire ~round ~recipient ~src payload : int)
      in
      let view =
        Delivery.route_arena ~on_deliver ~state:arena ~equal:P.equal_message
          ~present:(Node_id.Set.of_list (K.active_ids k))
          ~envelopes:(K.take_pending k) ()
      in
      (* The inbox check; in delivered mode the node then steps on what
         the wire delivered. *)
      let inbox id =
        let routed = Delivery.view_inbox view id in
        match Node_id.Map.find_opt id recorded with
        | None -> routed
        | Some nr when delivered ->
            (* Faults only ever remove deliveries (drops, holes, late
               frames): the runtime's inbox must be a sub-schedule of
               lockstep routing. An extra or reordered message is a
               divergence. *)
            if not (sub_inbox nr.nr_inbox routed) then
              diverge ~round ~node:id
                (Printf.sprintf
                   "inbox not a sub-schedule: runtime delivered %d \
                    message(s), oracle routes %d"
                   (List.length nr.nr_inbox) (List.length routed));
            List.iter
              (fun (src, payload) ->
                Ubpa_obs.Wire.record wire ~round ~sender:src ~recipient:id
                  ~kind:"msg" ~bits:(P.encoded_bits payload))
              nr.nr_inbox;
            nr.nr_inbox
        | Some nr ->
            if not (eq_inbox nr.nr_inbox routed) then
              diverge ~round ~node:id
                (Printf.sprintf
                   "inbox mismatch: runtime delivered %d message(s), oracle \
                    routes %d"
                   (List.length nr.nr_inbox) (List.length routed));
            routed
      in
      (* The send check. *)
      let supply _ (n : K.node) inbox =
        let ((_, sends, _) as step) = K.call k n ~stim:[] n.state ~inbox in
        (match Node_id.Map.find_opt n.id recorded with
        | Some nr when not (eq_sends nr.nr_sends sends) ->
            diverge ~round ~node:n.id
              (Printf.sprintf
                 "send mismatch: runtime emitted %d send(s), oracle steps to \
                  %d"
                 (List.length nr.nr_sends) (List.length sends))
        | _ -> ());
        step
      in
      K.step k ~inbox ~supply ~send:(fun _ _ -> true)
    in
    List.iter replay_round sc.sc_rounds;
    {
      ok = !divergence = None;
      divergence = !divergence;
      outputs = K.collect k (fun n -> n.last_output);
      decide_rounds = K.collect k (fun n -> n.first_output_round);
      halted = K.collect k (fun n -> n.halted_at);
      missing = K.collect k (fun n -> n.down_since);
      rounds = k.round;
      wire;
    }

  let pp_divergence ppf d =
    Fmt.pf ppf "round %d%a: %s" d.d_round
      (Fmt.option (fun ppf id -> Fmt.pf ppf " %a" Node_id.pp id))
      d.d_node d.d_what
end
