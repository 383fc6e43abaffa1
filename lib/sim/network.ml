open Ubpa_util

module Make (P : Protocol.S) = struct
  type node_report = {
    id : Node_id.t;
    joined_at : int;
    first_output_round : int option;
    last_output : P.output option;
    halted_at : int option;
    down_since : int option;
  }

  type correct_node = {
    c_id : Node_id.t;
    c_joined_at : int;
    mutable c_state : P.state;
    mutable c_first_output_round : int option;
    mutable c_last_output : P.output option;
    mutable c_halted_at : int option;
    mutable c_down_since : int option;  (* injected crash/leave in effect *)
  }

  type byz_node = {
    b_id : Node_id.t;
    b_act : P.message Strategy.view -> (Envelope.dest * P.message) list;
  }

  type pending_join =
    | Join_correct of Node_id.t * P.input
    | Join_byzantine of Node_id.t * P.message Strategy.t

  type t = {
    rushing : bool;
    delivery : Delivery.impl;
    wire_accounting : bool;
    arena : P.message Delivery.arena_state;
        (* cross-round arena state, fed every round when delivery = Arena *)
    rng : Rng.t;
    faults : Ubpa_faults.plan;
    frng : Rng.t;
        (* Fault-plan decisions draw from their own stream so an empty plan
           leaves every existing random stream untouched, and a non-empty
           one gives identical decisions on both delivery cores. *)
    tr : Trace.t;
    classify : (P.message -> string) option;
    stimulus : round:int -> Node_id.t -> P.stimulus list;
    metrics : Metrics.t;
    wire : Ubpa_obs.Wire.t;
    mutable round : int;
    mutable correct : correct_node Node_id.Map.t;
    mutable byzantine : byz_node Node_id.Map.t;
    mutable queued_joins : pending_join list; (* reversed *)
    mutable queued_removals : Node_id.Set.t;
    mutable pending : P.message Envelope.t list; (* sent last round, reversed *)
    mutable dup_next : P.message Envelope.t list;
        (* envelopes duplicated by the fault plan, re-delivered next round *)
  }

  let no_stimulus ~round:_ _ = []

  let find_inbox inboxes id =
    match Node_id.Map.find_opt id inboxes with Some l -> l | None -> []

  let create ?(rushing = true) ?(delivery = Delivery.Arena)
      ?(wire_accounting = true) ?(seed = 0xbadc0ffeeL)
      ?(faults = Ubpa_faults.empty) ?(trace = Trace.disabled) ?classify
      ?(stimulus = no_stimulus) ~correct ~byzantine () =
    let t =
      {
        rushing;
        delivery;
        wire_accounting;
        arena = Delivery.arena_create ();
        rng = Rng.create seed;
        faults;
        frng = Rng.create (Int64.logxor seed 0x6661756c745eedL);
        tr = trace;
        classify;
        stimulus;
        metrics = Metrics.create ();
        wire = Ubpa_obs.Wire.create ();
        round = 0;
        correct = Node_id.Map.empty;
        byzantine = Node_id.Map.empty;
        queued_joins = [];
        queued_removals = Node_id.Set.empty;
        pending = [];
        dup_next = [];
      }
    in
    let ids = List.map fst correct @ List.map fst byzantine in
    if List.length (Node_id.sorted ids) <> List.length ids then
      invalid_arg "Network.create: duplicate node identifiers";
    t.queued_joins <-
      List.rev_map (fun (id, input) -> Join_correct (id, input)) correct
      @ List.rev_map (fun (id, s) -> Join_byzantine (id, s)) byzantine;
    t

  let join_correct t id input =
    t.queued_joins <- Join_correct (id, input) :: t.queued_joins

  let join_byzantine t id strat =
    t.queued_joins <- Join_byzantine (id, strat) :: t.queued_joins

  let remove_byzantine t id =
    t.queued_removals <- Node_id.Set.add id t.queued_removals

  let apply_membership t =
    List.iter
      (function
        | Join_correct (id, input) ->
            if Node_id.Map.mem id t.correct || Node_id.Map.mem id t.byzantine
            then invalid_arg "Network: joining identifier already present";
            Trace.recordf t.tr ~round:t.round ~node:id ~kind:Trace.Join
              "join (correct)";
            t.correct <-
              Node_id.Map.add id
                {
                  c_id = id;
                  c_joined_at = t.round;
                  c_state = P.init ~self:id ~round:t.round input;
                  c_first_output_round = None;
                  c_last_output = None;
                  c_halted_at = None;
                  c_down_since = None;
                }
                t.correct
        | Join_byzantine (id, strat) ->
            if Node_id.Map.mem id t.correct || Node_id.Map.mem id t.byzantine
            then invalid_arg "Network: joining identifier already present";
            Trace.recordf t.tr ~round:t.round ~node:id ~kind:Trace.Join
              "join (byzantine %s)" (Strategy.name strat);
            let act = Strategy.instantiate strat (Rng.split t.rng) id in
            t.byzantine <- Node_id.Map.add id { b_id = id; b_act = act } t.byzantine)
      (List.rev t.queued_joins);
    t.queued_joins <- [];
    Node_id.Set.iter
      (fun id ->
        Trace.recordf t.tr ~round:t.round ~node:id ~kind:Trace.Leave
          "leave (byzantine)";
        t.byzantine <- Node_id.Map.remove id t.byzantine)
      t.queued_removals;
    t.queued_removals <- Node_id.Set.empty

  let active_correct_nodes t =
    Node_id.Map.fold
      (fun _ n acc ->
        if n.c_halted_at = None && n.c_down_since = None then n :: acc else acc)
      t.correct []
    |> List.rev (* fold yields descending; reverse to ascending id order *)

  (* Crash / churn transitions scheduled by the fault plan for this round.
     A downed node keeps its state (crash-recover resumes where it left
     off) but is absent from [present]: it neither steps, sends, nor
     receives while down. *)
  let apply_fault_transitions t =
    Node_id.Map.iter
      (fun id n ->
        if n.c_halted_at = None then
          let status = Ubpa_faults.status t.faults ~node:id ~round:t.round in
          match (n.c_down_since, status) with
          | None, (`Crashed | `Left) ->
              n.c_down_since <- Some t.round;
              Trace.recordf t.tr ~round:t.round ~node:id ~kind:Trace.Fault
                "%s"
                (match status with
                | `Left -> "fault: leave (churn)"
                | _ -> "fault: crash")
          | Some _, `Up ->
              n.c_down_since <- None;
              Trace.recordf t.tr ~round:t.round ~node:id ~kind:Trace.Fault
                "%s"
                (match
                   Ubpa_faults.status t.faults ~node:id ~round:(t.round - 1)
                 with
                | `Left -> "fault: rejoin (churn, state intact)"
                | _ -> "fault: recover (state intact)")
          | _ -> ())
      t.correct

  let active_correct t = List.map (fun n -> n.c_id) (active_correct_nodes t)

  let correct_ids t = Node_id.Map.fold (fun id _ acc -> id :: acc) t.correct [] |> List.rev

  let byzantine_ids t =
    Node_id.Map.fold (fun id _ acc -> id :: acc) t.byzantine [] |> List.rev

  (* Receive-omission and delay are per recipient, after routing: a
     broadcast may be lost at one victim and arrive everywhere else. Each
     present node's inbox is read once, in ascending id order, and
     filtered over its sender-sorted entries — the [frng] draw order the
     [?faults] doc in network.mli specifies. *)
  let fault_filter t ~present inbox_of delivered =
    let dropped = ref 0 in
    let drop_with ~p ~what dst inbox =
      List.filter
        (fun (src, payload) ->
          if Rng.float t.frng 1.0 < p then begin
            incr dropped;
            if Trace.enabled t.tr then
              Trace.recordf t.tr ~round:t.round ~node:dst ~kind:Trace.Fault
                "fault: %s from %a: %a" what Node_id.pp src P.pp_message
                payload;
            false
          end
          else true)
        inbox
    in
    let filtered =
      Node_id.Set.fold
        (fun dst acc ->
          let inbox = inbox_of dst in
          let p =
            Ubpa_faults.recv_omission_prob t.faults ~node:dst ~round:t.round
          in
          let inbox =
            if p <= 0. then inbox
            else drop_with ~p ~what:"recv-omission drop" dst inbox
          in
          (* A delayed envelope misses its delivery round; the synchronous
             engine has no late slot, so it is dropped. No randomness is
             drawn unless a delay window is active, keeping delay-free
             plans bit-reproducible. *)
          let inbox =
            match Ubpa_faults.delay_spec t.faults ~node:dst ~round:t.round with
            | None -> inbox
            | Some (p, dr) ->
                drop_with ~p
                  ~what:(Printf.sprintf "delay +%dr (missed its round)" dr)
                  dst inbox
          in
          Node_id.Map.add dst inbox acc)
        present Node_id.Map.empty
    in
    (find_inbox filtered, delivered - !dropped)

  (* Deliver pending envelopes to the nodes present this round. Returns the
     round's inbox reader: recipient to its inbox sorted by sender id.
     Duplicate (sender, payload) pairs for the same recipient are dropped,
     with payload equality decided by [P.equal_message]. *)
  let deliver t ~present =
    let faulty = not (Ubpa_faults.is_empty t.faults) in
    let envelopes = List.rev t.pending in
    (* Link-level faults happen before routing: per-envelope loss drops the
       envelope for every recipient; duplication re-injects a copy into the
       *next* round (a same-round copy would be absorbed by the dedup). *)
    let envelopes =
      if not faulty then envelopes
      else begin
        let loss = Ubpa_faults.loss t.faults
        and dup = Ubpa_faults.dup t.faults in
        let kept =
          if loss <= 0. then envelopes
          else
            List.filter
              (fun (env : P.message Envelope.t) ->
                if Rng.float t.frng 1.0 < loss then begin
                  if Trace.enabled t.tr then
                    Trace.recordf t.tr ~round:t.round ~node:env.src
                      ~kind:Trace.Fault "fault: loss %a"
                      (Envelope.pp P.pp_message) env;
                  false
                end
                else true)
              envelopes
        in
        if dup > 0. then
          List.iter
            (fun (env : P.message Envelope.t) ->
              if Rng.float t.frng 1.0 < dup then begin
                if Trace.enabled t.tr then
                  Trace.recordf t.tr ~round:t.round ~node:env.src
                    ~kind:Trace.Fault "fault: duplicate (next round) %a"
                    (Envelope.pp P.pp_message) env;
                t.dup_next <- env :: t.dup_next
              end)
            kept;
        kept
      end
    in
    (* Wire accounting fires at the cores' accept points: post-dedup (a
       suppressed duplicate never crossed the wire twice), pre
       receive-omission (the message was transmitted; the faulty receiver
       dropped it afterwards). Both cores drive the same hook, so CX1's
       cross-core wire-identity claim inherits the delivery-identity
       guarantee. *)
    let kind_of =
      match t.classify with Some f -> f | None -> fun _ -> "msg"
    in
    (* [?wire_accounting:false] disables the hook entirely: at n ≈ 10,000
       the per-delivery hash updates dominate the round, and the SCALE
       sweeps measure the engine, not the observer. With the hook off the
       arena core never fans a broadcast out at all. *)
    let on_deliver =
      if not t.wire_accounting then None
      else
        Some
          (fun ~recipient ~src payload ->
            let bits = P.encoded_bits payload in
            Ubpa_obs.Wire.record t.wire ~round:t.round ~sender:src ~recipient
              ~kind:(kind_of payload) ~bits;
            Metrics.record_wire t.metrics ~round:t.round ~bits)
    in
    let inbox_of, delivered =
      match t.delivery with
      | Delivery.Arena ->
          (* Scan + seal, no map, no fan-out: each inbox is expanded from
             the view only when its owner is stepped. *)
          let view =
            Delivery.route_arena ?on_deliver ~state:t.arena
              ~equal:P.equal_message ~present ~envelopes ()
          in
          (Delivery.view_inbox view, Delivery.view_delivered view)
      | Delivery.Naive ->
          let inboxes, delivered =
            Delivery.route_reference ?on_deliver ~equal:P.equal_message
              ~present ~envelopes ()
          in
          (find_inbox inboxes, delivered)
    in
    let inbox_of, delivered =
      if faulty then fault_filter t ~present inbox_of delivered
      else (inbox_of, delivered)
    in
    Metrics.record_delivered t.metrics ~round:t.round delivered;
    inbox_of

  let step_round_untimed t =
    t.round <- t.round + 1;
    Metrics.tick_round t.metrics;
    apply_membership t;
    if not (Ubpa_faults.is_empty t.faults) then apply_fault_transitions t;
    let present =
      Node_id.Set.union
        (Node_id.Set.of_list (active_correct t))
        (Node_id.Set.of_list (byzantine_ids t))
    in
    let inbox_of = deliver t ~present in
    (* Correct nodes first (their sends feed the rushing adversary). *)
    let correct_sends = ref [] in
    let faulty = not (Ubpa_faults.is_empty t.faults) in
    List.iter
      (fun n ->
        let stim = t.stimulus ~round:t.round n.c_id in
        let state, sends, status =
          P.step ~self:n.c_id ~round:t.round ~stim n.c_state
            ~inbox:(inbox_of n.c_id)
        in
        n.c_state <- state;
        let omit_p =
          if faulty then
            Ubpa_faults.send_omission_prob t.faults ~node:n.c_id
              ~round:t.round
          else 0.
        in
        List.iter
          (fun (dst, payload) ->
            let env = { Envelope.src = n.c_id; dst; payload } in
            if omit_p > 0. && Rng.float t.frng 1.0 < omit_p then begin
              if Trace.enabled t.tr then
                Trace.recordf t.tr ~round:t.round ~node:n.c_id
                  ~kind:Trace.Fault "fault: send-omission drop %a"
                  (Envelope.pp P.pp_message) env
            end
            else begin
              Metrics.record_send t.metrics ~byzantine:false;
              (match t.classify with
              | Some f -> Metrics.record_kind t.metrics (f payload)
              | None -> ());
              if Trace.enabled t.tr then
                Trace.recordf t.tr ~round:t.round ~node:n.c_id
                  ~kind:Trace.Send "send %a" (Envelope.pp P.pp_message) env;
              correct_sends := env :: !correct_sends
            end)
          sends;
        (match status with
        | Protocol.Continue -> ()
        | Protocol.Deliver out ->
            if n.c_first_output_round = None then
              n.c_first_output_round <- Some t.round;
            n.c_last_output <- Some out;
            Trace.recordf t.tr ~round:t.round ~node:n.c_id ~kind:Trace.Output
              "output"
        | Protocol.Stop out ->
            if n.c_first_output_round = None then
              n.c_first_output_round <- Some t.round;
            n.c_last_output <- Some out;
            n.c_halted_at <- Some t.round;
            Trace.recordf t.tr ~round:t.round ~node:n.c_id ~kind:Trace.Halt
              "halt"))
      (active_correct_nodes t);
    let rushing_view =
      if t.rushing then
        List.rev_map
          (fun (env : P.message Envelope.t) -> (env.src, env.dst, env.payload))
          !correct_sends
      else []
    in
    let correct_now = active_correct t in
    let byz_now = byzantine_ids t in
    let byz_sends = ref [] in
    Node_id.Map.iter
      (fun _ b ->
        let view =
          {
            Strategy.round = t.round;
            self = b.b_id;
            correct = correct_now;
            byzantine = byz_now;
            inbox = inbox_of b.b_id;
            rushing = rushing_view;
            equal_message = P.equal_message;
          }
        in
        List.iter
          (fun (dst, payload) ->
            Metrics.record_send t.metrics ~byzantine:true;
            let env = { Envelope.src = b.b_id; dst; payload } in
            if Trace.enabled t.tr then
              Trace.recordf t.tr ~round:t.round ~node:b.b_id
                ~kind:Trace.Byz_send "byz-send %a" (Envelope.pp P.pp_message)
                env;
            byz_sends := env :: !byz_sends)
          (b.b_act view))
      t.byzantine;
    t.pending <- !byz_sends @ !correct_sends;
    if t.dup_next <> [] then begin
      (* Reversed like [pending]; prepending re-delivers the duplicates
         after next round's fresh traffic. *)
      t.pending <- t.dup_next @ t.pending;
      t.dup_next <- []
    end

  let step_round t =
    let t0 = Clock.now_ms () in
    step_round_untimed t;
    Metrics.record_round_time t.metrics ~round:t.round
      (Clock.elapsed_ms ~since:t0)

  let all_halted t =
    (* A node the fault plan keeps down forever (crash-stop, leave with no
       rejoin) can never halt; it is written off rather than spinning the
       run to max_rounds. *)
    Node_id.Map.for_all
      (fun id n ->
        n.c_halted_at <> None
        || n.c_down_since <> None
           && Ubpa_faults.permanently_down t.faults ~node:id ~round:t.round)
      t.correct
    && t.queued_joins = []

  let stalled t =
    Node_id.Map.fold
      (fun id n acc -> if n.c_halted_at = None then id :: acc else acc)
      t.correct []
    |> List.rev

  let has_correct t =
    (not (Node_id.Map.is_empty t.correct))
    || List.exists
         (function Join_correct _ -> true | Join_byzantine _ -> false)
         t.queued_joins

  let run ?(max_rounds = 10_000) t =
    (* Correct nodes are never removed and [run] itself admits no joins, so
       a network with no correct node (present or queued) stays that way:
       report it instead of vacuously claiming everyone halted. *)
    if not (has_correct t) then `No_correct_nodes
    else
      let rec go () =
        if all_halted t then `All_halted
        else if t.round >= max_rounds then `Max_rounds_reached (stalled t)
        else begin
          step_round t;
          go ()
        end
      in
      go ()

  let run_until ?(max_rounds = 10_000) t ~stop =
    let rec go () =
      if stop t then `Stopped
      else if t.round >= max_rounds then `Max_rounds_reached (stalled t)
      else begin
        step_round t;
        go ()
      end
    in
    go ()

  let round t = t.round
  let metrics t = t.metrics
  let wire t = t.wire
  let trace t = t.tr

  let report t id =
    match Node_id.Map.find_opt id t.correct with
    | None -> raise Not_found
    | Some n ->
        {
          id = n.c_id;
          joined_at = n.c_joined_at;
          first_output_round = n.c_first_output_round;
          last_output = n.c_last_output;
          halted_at = n.c_halted_at;
          down_since = n.c_down_since;
        }

  let reports t = List.map (report t) (correct_ids t)

  let states t =
    List.map
      (fun id -> (id, (Node_id.Map.find id t.correct).c_state))
      (correct_ids t)

  let outputs t =
    List.filter_map
      (fun r -> Option.map (fun o -> (r.id, o)) r.last_output)
      (reports t)
end
