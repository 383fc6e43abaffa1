open Ubpa_util

module Make (P : Protocol.S) = struct
  module K = Kernel.Make (P)

  type node_report = K.node = {
    id : Node_id.t;
    joined_at : int;
    mutable state : P.state;
    mutable first_output_round : int option;
    mutable last_output : P.output option;
    mutable halted_at : int option;
    mutable down_since : int option;
  }

  type byz_node = {
    b_id : Node_id.t;
    b_act : P.message Strategy.view -> (Envelope.dest * P.message) list;
  }

  type pending_join =
    | Join_correct of Node_id.t * P.input
    | Join_byzantine of Node_id.t * P.message Strategy.t

  type t = {
    k : K.t;
        (* the correct nodes, the round counter, the trace and the
           envelopes sent last round (newest first) *)
    delivery : Delivery.impl;
    wire_accounting : bool;
    arena : P.message Delivery.arena_state;
        (* cross-round arena state, fed every round when delivery = Arena *)
    index : Interner.t;
        (* The run's sender index, handed to every protocol state. Each
           node is registered before the round that delivers its first
           message: at [create], or when its join is applied. *)
    rng : Rng.t;
    faults : Ubpa_faults.plan;
    faulty : bool;  (* [faults] is not empty *)
    frng : Rng.t;
        (* Fault-plan decisions draw from their own stream so an empty plan
           leaves every existing random stream untouched, and a non-empty
           one gives identical decisions on both delivery cores. *)
    classify : (P.message -> string) option;
    stimulus : round:int -> Node_id.t -> P.stimulus list;
    metrics : Metrics.t;
    wire : Ubpa_obs.Wire.t;
    meter : P.message Wire_meter.t;
    mutable omit_p : float;
        (* send-omission probability of the node being stepped, set by
           its step supplier for the send filter *)
    mutable byzantine : byz_node Node_id.Map.t;
    mutable queued_joins : pending_join list; (* reversed *)
    mutable queued_removals : Node_id.Set.t;
    mutable dup_next : P.message Envelope.t list;
        (* envelopes duplicated by the fault plan, re-delivered next round *)
  }

  let no_stimulus ~round:_ _ = []

  let find_inbox inboxes id =
    match Node_id.Map.find_opt id inboxes with Some l -> l | None -> []

  let create ?(delivery = Delivery.Arena)
      ?(wire_accounting = true) ?(seed = 0xbadc0ffeeL)
      ?(faults = Ubpa_faults.empty) ?(trace = Trace.disabled) ?classify
      ?(stimulus = no_stimulus) ~correct ~byzantine () =
    let ids = List.map fst correct @ List.map fst byzantine in
    if List.length (Node_id.sorted ids) <> List.length ids then
      invalid_arg "Network.create: duplicate node identifiers";
    let t =
      {
        k = K.create ~trace [||];
        delivery;
        wire_accounting;
        arena = Delivery.arena_create ();
        index = Interner.of_ids ids;
        rng = Rng.create seed;
        faults;
        faulty = not (Ubpa_faults.is_empty faults);
        frng = Rng.create (Int64.logxor seed 0x6661756c745eedL);
        classify;
        stimulus;
        metrics = Metrics.create ();
        wire = Ubpa_obs.Wire.create ();
        meter =
          Wire_meter.create ~encoded_bits:P.encoded_bits
            ~classify:
              (match classify with Some f -> f | None -> fun _ -> "msg");
        omit_p = 0.;
        byzantine = Node_id.Map.empty;
        queued_joins = [];
        queued_removals = Node_id.Set.empty;
        dup_next = [];
      }
    in
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

  let already_present () =
    invalid_arg "Network: joining identifier already present"

  let apply_membership t =
    let k = t.k in
    let joined =
      List.fold_left
        (fun joined -> function
          | Join_correct (id, input) ->
              if Node_id.Map.mem id t.byzantine then already_present ();
              Trace.recordf k.tr ~round:k.round ~node:id ~kind:Trace.Join
                "join (correct)";
              ignore (Interner.intern t.index id);
              K.node ~index:t.index ~round:k.round id input :: joined
          | Join_byzantine (id, strat) ->
              let twin (n : K.node) = Node_id.equal n.id id in
              if
                Node_id.Map.mem id t.byzantine
                || Array.exists twin k.nodes || List.exists twin joined
              then already_present ();
              Trace.recordf k.tr ~round:k.round ~node:id ~kind:Trace.Join
                "join (byzantine %s)" (Strategy.name strat);
              ignore (Interner.intern t.index id);
              let act = Strategy.instantiate strat (Rng.split t.rng) id in
              t.byzantine <-
                Node_id.Map.add id { b_id = id; b_act = act } t.byzantine;
              joined)
        [] (List.rev t.queued_joins)
    in
    t.queued_joins <- [];
    if joined <> [] then begin
      (* One merge per round that admits correct nodes; a repeated id
         ends up next to its twin. *)
      let by_id (a : K.node) b = Node_id.compare a.id b.id in
      k.nodes <-
        Array.of_list
          (List.merge by_id (Array.to_list k.nodes) (List.sort by_id joined));
      for i = 1 to Array.length k.nodes - 1 do
        if Node_id.equal k.nodes.(i - 1).id k.nodes.(i).id then
          already_present ()
      done
    end;
    Node_id.Set.iter
      (fun id ->
        Trace.recordf k.tr ~round:k.round ~node:id ~kind:Trace.Leave
          "leave (byzantine)";
        t.byzantine <- Node_id.Map.remove id t.byzantine)
      t.queued_removals;
    t.queued_removals <- Node_id.Set.empty

  (* Crash / churn transitions scheduled by the fault plan for this round.
     A downed node keeps its state (crash-recover resumes where it left
     off) but is absent from [present]: it neither steps, sends, nor
     receives while down. *)
  let apply_fault_transitions t =
    let k = t.k in
    Array.iter
      (fun n ->
        if n.halted_at = None then
          let status = Ubpa_faults.status t.faults ~node:n.id ~round:k.round in
          match (n.down_since, status) with
          | None, (`Crashed | `Left) ->
              n.down_since <- Some k.round;
              Trace.recordf k.tr ~round:k.round ~node:n.id ~kind:Trace.Fault
                "%s"
                (match status with
                | `Left -> "fault: leave (churn)"
                | _ -> "fault: crash")
          | Some _, `Up ->
              n.down_since <- None;
              Trace.recordf k.tr ~round:k.round ~node:n.id ~kind:Trace.Fault
                "%s"
                (match
                   Ubpa_faults.status t.faults ~node:n.id ~round:(k.round - 1)
                 with
                | `Left -> "fault: rejoin (churn, state intact)"
                | _ -> "fault: recover (state intact)")
          | _ -> ())
      k.nodes

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
            Trace.recordf t.k.tr ~round:t.k.round ~node:dst ~kind:Trace.Fault
              "fault: %s from %a: %a" what Node_id.pp src P.pp_message payload;
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
            Ubpa_faults.recv_omission_prob t.faults ~node:dst ~round:t.k.round
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
            match
              Ubpa_faults.delay_spec t.faults ~node:dst ~round:t.k.round
            with
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
    let faulty = t.faulty in
    let envelopes = K.take_pending t.k in
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
                  Trace.recordf t.k.tr ~round:t.k.round ~node:env.src
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
                Trace.recordf t.k.tr ~round:t.k.round ~node:env.src
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
    (* [?wire_accounting:false] disables the hook entirely, and with it
       off the arena core never fans a broadcast out at all. With it on,
       the hook sizes each accepted record once and makes an
       allocation-free counter update per delivery: on the 61-node
       split-world consensus cell an instance takes about 103 ms on
       against 73 ms off (2-vCPU Xeon VM). The SCALE sweeps measure the
       engine, not the observer, and run with it off. *)
    let on_deliver =
      if not t.wire_accounting then None
      else
        Some
          (fun ~recipient ~src payload ->
            let bits =
              Wire_meter.record t.meter t.wire ~round:t.k.round ~recipient ~src
                payload
            in
            Metrics.record_wire t.metrics ~round:t.k.round ~bits)
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
    Metrics.record_delivered t.metrics ~round:t.k.round delivered;
    inbox_of

  (* The send filter of the kernel's step loop: send omission draws from
     the fault stream per send; a kept send is counted. *)
  let keep t (n : K.node) (env : P.message Envelope.t) =
    if t.omit_p > 0. && Rng.float t.frng 1.0 < t.omit_p then begin
      Trace.recordf t.k.tr ~round:t.k.round ~node:n.id ~kind:Trace.Fault
        "fault: send-omission drop %a" (Envelope.pp P.pp_message) env;
      false
    end
    else begin
      Metrics.record_send t.metrics ~byzantine:false;
      (match t.classify with
      | Some f -> Metrics.record_kind t.metrics (f env.payload)
      | None -> ());
      true
    end

  let step_round_untimed t =
    let k = t.k in
    k.round <- k.round + 1;
    Metrics.tick_round t.metrics;
    apply_membership t;
    if t.faulty then apply_fault_transitions t;
    let present =
      Node_id.Set.union
        (Node_id.Set.of_list (K.active_ids k))
        (Node_id.Set.of_list (byzantine_ids t))
    in
    let inbox_of = deliver t ~present in
    (* Correct nodes first (their sends feed the rushing adversary). *)
    K.step k ~inbox:inbox_of
      ~supply:(fun _ n inbox ->
        if t.faulty then
          t.omit_p <-
            Ubpa_faults.send_omission_prob t.faults ~node:n.id ~round:k.round;
        K.call k n ~stim:(t.stimulus ~round:k.round n.id) n.state ~inbox)
      ~send:(keep t);
    if not (Node_id.Map.is_empty t.byzantine) then begin
      let rushing =
        List.rev_map
          (fun (env : P.message Envelope.t) -> (env.src, env.dst, env.payload))
          k.pending
      in
      let correct = K.active_ids k and byzantine = byzantine_ids t in
      Node_id.Map.iter
        (fun _ b ->
          List.iter
            (fun (dst, payload) ->
              Metrics.record_send t.metrics ~byzantine:true;
              K.send_byzantine k { Envelope.src = b.b_id; dst; payload })
            (b.b_act
               {
                 Strategy.round = k.round;
                 self = b.b_id;
                 correct;
                 byzantine;
                 inbox = inbox_of b.b_id;
                 rushing;
                 equal_message = P.equal_message;
               }))
        t.byzantine
    end;
    if t.dup_next <> [] then begin
      (* Reversed like [pending]; prepending re-delivers the duplicates
         after next round's fresh traffic. *)
      k.pending <- t.dup_next @ k.pending;
      t.dup_next <- []
    end

  let step_round t =
    let t0 = Clock.now_ms () in
    step_round_untimed t;
    Metrics.record_round_time t.metrics ~round:t.k.round
      (Clock.elapsed_ms ~since:t0)

  let all_halted t =
    (* A node the fault plan keeps down forever (crash-stop, leave with no
       rejoin) can never halt; it is written off rather than spinning the
       run to max_rounds. *)
    K.all_halted t.k ~written_off:(fun n ->
        Ubpa_faults.permanently_down t.faults ~node:n.id ~round:t.k.round)
    && t.queued_joins = []

  let has_correct t =
    Array.length t.k.nodes > 0
    || List.exists
         (function Join_correct _ -> true | Join_byzantine _ -> false)
         t.queued_joins

  let loop ?(max_rounds = 10_000) t ~until ~after =
    K.run t.k ~max_rounds ~until ~step:(fun () -> step_round t) ~after

  let run ?max_rounds t =
    (* Correct nodes are never removed and [run] itself admits no joins, so
       a network with no correct node (present or queued) stays that way:
       report it instead of vacuously claiming everyone halted. *)
    if not (has_correct t) then `No_correct_nodes
    else
      let until () = all_halted t in
      match loop ?max_rounds t ~until ~after:ignore with
      | `Done -> `All_halted
      | `Max_rounds_reached _ as m -> m

  let run_until ?max_rounds t ~stop =
    match loop ?max_rounds t ~until:(fun () -> stop t) ~after:ignore with
    | `Done -> `Stopped
    | `Max_rounds_reached _ as m -> m

  let round t = t.k.round
  let metrics t = t.metrics
  let wire t = t.wire
  let trace t = t.k.tr

  (* A snapshot: later rounds do not move it. *)
  let report t id =
    match K.find t.k id with
    | None -> raise Not_found
    | Some n -> { n with state = n.state }

  let reports t =
    Array.fold_right
      (fun n acc -> { n with state = n.state } :: acc)
      t.k.nodes []

  let states t = K.collect t.k (fun n -> Some n.state)

  let outputs t = K.collect t.k (fun n -> n.last_output)
end
