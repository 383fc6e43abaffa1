open Ubpa_util
open Ubpa_sim

module Make (P : Protocol.S) = struct
  module Oracle = Replay.Make (P)

  type transport = [ `Domains | `Socket ]

  let transport_name = function `Domains -> "domains" | `Socket -> "socket"

  type node_summary = {
    ns_id : Node_id.t;
    ns_output : P.output option;
    ns_decide_round : int option;
    ns_halted_at : int option;
    ns_crashed_at : int option;
  }

  type run = {
    r_transport : string;
    r_rounds : int;
    r_nodes : node_summary list;
    r_schedule : Oracle.schedule;
    r_events : Trace.event list;
    r_wire : Ubpa_obs.Wire.t;
    r_frames : int;
    r_frame_bytes : int;
    r_ctrl_frames : int;
    r_late_frames : int;
    r_missing : int;
    r_injected : Transport_faulty.injected;
    r_dead : (Node_id.t * Node_id.t * int) list;
    r_crashed : (Node_id.t * int) list;
  }

  let available = Runtime_backend.available
  let unavailable_reason = Runtime_backend.unavailable_reason

  (* Per-node recording cell. Written only by the owning node's thread
     while it runs; read only by the coordinator after the join, which
     provides the synchronization edge. *)
  type slot = {
    sl_id : Node_id.t;
    sl_input : P.input;
    mutable sl_rounds : (int * Oracle.node_round) list; (* newest first *)
    mutable sl_events : (int * Trace.event list) list; (* newest first *)
    mutable sl_first_output : int option;
    mutable sl_last_output : P.output option;
    mutable sl_halted_at : int option;
    mutable sl_crashed_at : int option;
    mutable sl_frame_bytes : int;
    mutable sl_frames : int;
    mutable sl_ctrl_frames : int;
    mutable sl_late : int;
    mutable sl_missing : int;
    mutable sl_dead_marks : (Node_id.t * int) list; (* peer, round; newest first *)
    mutable sl_fault_log : (int * string) list; (* round, what; unsorted *)
    mutable sl_error : string option;
  }

  (* Rebuild the delivery contract from raw received frames: stable-sort
     by sender id (per-sender arrival order is send order on every
     transport), then drop repeated payloads within each sender's run,
     keeping the first — exactly what either delivery core produces per
     recipient. A payload is compared only with its own sender's kept
     payloads, so one sender's few messages per round cost a few
     [equal_message] calls, not one per message in the inbox. *)
  let assemble_inbox frames =
    let rec go src kept acc = function
      | [] -> List.rev acc
      | ((s, p) as m) :: rest ->
          if not (Node_id.equal s src) then go s [ p ] (m :: acc) rest
          else if List.exists (P.equal_message p) kept then go src kept acc rest
          else go src (p :: kept) (m :: acc) rest
    in
    let by_sender (a, _) (b, _) = Node_id.compare a b in
    match List.stable_sort by_sender frames with
    | [] -> []
    | ((s, p) as m) :: rest -> go s [ p ] [ m ] rest

  let node_loop (type hub endpoint)
      (module F : Transport_faulty.S with type hub = hub and type endpoint = endpoint)
      ~(slot : slot) ~(ids : Node_id.t array) ~index ~plan ~(sync : Sync.t)
      ~(ep : endpoint) ~max_rounds =
    let self = slot.sl_id in
    let state = ref (P.init ~self ~round:1 ~index slot.sl_input) in
    let inbox = ref [] in
    let r = ref 1 in
    let running = ref true in
    let marker kind = { Frame.src = self; round = !r; kind; body = "" } in
    (* A broken edge ends the node with an error. Its farewell keeps the
       peers that still wait for its markers from waiting forever. *)
    let broken (e : Transport.error) =
      if slot.sl_error = None then
        slot.sl_error <-
          Some
            (Printf.sprintf "node %d: transport: peer #%d %s at round %d"
               (Node_id.to_int self)
               (Node_id.to_int e.Transport.peer)
               (match e.Transport.failure with
               | Transport.Closed -> "closed its end"
               | Transport.Corrupt why -> "sent a corrupt stream: " ^ why)
               !r);
      Array.iter (fun id -> F.send ep ~dst:id (marker Frame.Halt)) ids;
      ignore (F.flush ep : (unit, Transport.error) result);
      running := false
    in
    (* Offers one receive's frames to the synchronizer; whether any
       came. *)
    let receive from ~timeout =
      match F.recv ep ~from ~timeout with
      | Error e -> Error e
      | Ok [] -> Ok false
      | Ok frames ->
          List.iter
            (fun (f : Frame.t) ->
              if f.Frame.kind <> Frame.Data then
                slot.sl_ctrl_frames <- slot.sl_ctrl_frames + 1)
            frames;
          Sync.offer sync frames;
          Ok true
    in
    (* Block on the first peer the round still waits for until the round
       is complete or its deadline fires. *)
    let rec await () =
      match Sync.waiting_on sync with
      | [] -> decide ()
      | first :: _ as awaited -> (
          let timeout = Sync.timeout sync ~now:(Unix.gettimeofday ()) in
          if timeout <= 0. then sweep false awaited
          else
            match receive first ~timeout with
            | Error e -> Error e
            | Ok _ -> await ())
    (* At the deadline the node has read only the peer it blocked on.
       Before the synchronizer decides who is missing, every awaited
       peer is read without blocking until a pass brings nothing, so a
       live peer whose marker sits unread is not reported missing. *)
    and sweep got = function
      | p :: rest -> (
          match receive p ~timeout:0. with
          | Error e -> Error e
          | Ok got_p -> sweep (got || got_p) rest)
      | [] -> (
          match Sync.waiting_on sync with
          | _ :: _ as still when got -> sweep false still
          | _ -> decide ())
    and decide () =
      match Sync.ready sync ~now:(Unix.gettimeofday ()) with
      | Some v -> Ok v
      | None -> await ()
    in
    while !running do
      if Ubpa_faults.status plan ~node:self ~round:!r <> `Up then begin
        (* Hard process crash: no farewell marker, no sends — the node
           simply stops, and peers find out through the liveness
           tracker's deadline path. *)
        slot.sl_crashed_at <- Some !r;
        running := false
      end
      else begin
        let events = ref [] in
        let ev kind what =
          events := { Trace.round = !r; node = Some self; kind; what } :: !events
        in
        let pending_halt = ref false in
        (match P.step ~self ~round:!r ~stim:[] !state ~inbox:!inbox with
        | exception e ->
            slot.sl_error <-
              Some
                (Printf.sprintf "node %d raised at round %d: %s"
                   (Node_id.to_int self) !r (Printexc.to_string e));
            slot.sl_halted_at <- Some !r;
            pending_halt := true
        | st, sends, status ->
            state := st;
            slot.sl_rounds <-
              (!r, { Oracle.nr_inbox = !inbox; nr_sends = sends }) :: slot.sl_rounds;
            List.iter
              (fun (dst, payload) ->
                let env = { Envelope.src = self; dst; payload } in
                ev Trace.Send (Fmt.str "send %a" (Envelope.pp P.pp_message) env);
                let frame =
                  {
                    Frame.src = self;
                    round = !r;
                    kind = Frame.Data;
                    body = Frame.marshal_message payload;
                  }
                in
                match dst with
                | Envelope.To id -> F.send ep ~dst:id frame
                | Envelope.Broadcast ->
                    (* Every node gets the frame, the sender and even
                       halted ones included: receivers that the model says
                       are absent next round drop it on receipt, mirroring
                       present-set routing. *)
                    Array.iter (fun id -> F.send ep ~dst:id frame) ids)
              sends;
            (match status with
            | Protocol.Continue -> ()
            | Protocol.Deliver out ->
                if slot.sl_first_output = None then slot.sl_first_output <- Some !r;
                slot.sl_last_output <- Some out;
                ev Trace.Output "output"
            | Protocol.Stop out ->
                if slot.sl_first_output = None then slot.sl_first_output <- Some !r;
                slot.sl_last_output <- Some out;
                slot.sl_halted_at <- Some !r;
                pending_halt := true;
                ev Trace.Halt "halt");
            slot.sl_events <- (!r, List.rev !events) :: slot.sl_events);
        (* End-of-round marker: Done while running, Halt as a farewell.
           Per-edge FIFO puts it after every Data frame of this round,
           so a peer holding our marker holds all our data too. *)
        let m = marker (if !pending_halt then Frame.Halt else Frame.Done) in
        Array.iter (fun id -> F.send ep ~dst:id m) ids;
        match F.flush ep with
        | Error e -> broken e
        | Ok () when !pending_halt || !r >= max_rounds -> running := false
        | Ok () -> (
            Sync.begin_round sync ~round:!r ~now:(Unix.gettimeofday ());
            Sync.offer sync (F.note_round ep !r);
            match await () with
            | Error e -> broken e
            | Ok v ->
                slot.sl_missing <-
                  slot.sl_missing + List.length v.Sync.v_missing;
                List.iter
                  (fun p -> slot.sl_dead_marks <- (p, !r) :: slot.sl_dead_marks)
                  v.Sync.v_newly_dead;
                inbox :=
                  assemble_inbox
                    (List.map
                       (fun (f : Frame.t) ->
                         ( f.Frame.src,
                           (Frame.unmarshal_message f.Frame.body : P.message) ))
                       v.Sync.v_inbox);
                incr r)
      end
    done;
    slot.sl_late <- Sync.late_frames sync;
    slot.sl_frames <- Sync.data_frames sync;
    slot.sl_frame_bytes <- Sync.data_bytes sync

  let exec (module B : Transport.S) ~plan ~fault_seed ~round_ms ~dead_after
      ~max_rounds ~(correct : (Node_id.t * P.input) list) =
    let module F =
      Transport_faulty.Make
        (B)
        (struct
          let plan = plan
          let seed = fault_seed
        end)
    in
    let slots =
      List.sort (fun (a, _) (b, _) -> Node_id.compare a b) correct
      |> List.map (fun (id, input) ->
             {
               sl_id = id;
               sl_input = input;
               sl_rounds = [];
               sl_events = [];
               sl_first_output = None;
               sl_last_output = None;
               sl_halted_at = None;
               sl_crashed_at = None;
               sl_frame_bytes = 0;
               sl_frames = 0;
               sl_ctrl_frames = 0;
               sl_late = 0;
               sl_missing = 0;
               sl_dead_marks = [];
               sl_fault_log = [];
               sl_error = None;
             })
    in
    let ids = Array.of_list (List.map (fun s -> s.sl_id) slots) in
    let id_list = Array.to_list ids in
    (* The run's sender index, complete before any node thread starts and
       only read after that, so the threads share it. *)
    let index = Interner.of_ids id_list in
    let hub = F.create ~ids:id_list in
    let cells =
      List.map
        (fun slot ->
          let ep = F.endpoint hub ~self:slot.sl_id in
          let sync = Sync.create ~peers:id_list ~round_ms ~dead_after in
          (slot, ep, sync))
        slots
    in
    let handles =
      List.map
        (fun (slot, ep, sync) ->
          Runtime_backend.spawn (fun () ->
              try
                node_loop (module F) ~slot ~ids ~index ~plan ~sync ~ep
                  ~max_rounds
              with e ->
                slot.sl_error <-
                  Some
                    (Printf.sprintf "node %d died: %s" (Node_id.to_int slot.sl_id)
                       (Printexc.to_string e))))
        cells
    in
    List.iter Runtime_backend.join handles;
    F.close hub;
    (* Collect the per-endpoint fault observations now the owners are
       gone (join is the synchronization edge). Sorting by (round, what)
       inside each owner makes the event stream a pure function of what
       was injected, independent of arrival interleaving. *)
    let injected = { Transport_faulty.inj_lost = 0; inj_dup = 0; inj_delayed = 0 } in
    List.iter
      (fun (slot, ep, sync) ->
        let inj = F.injected ep in
        injected.Transport_faulty.inj_lost <-
          injected.Transport_faulty.inj_lost + inj.Transport_faulty.inj_lost;
        injected.Transport_faulty.inj_dup <-
          injected.Transport_faulty.inj_dup + inj.Transport_faulty.inj_dup;
        injected.Transport_faulty.inj_delayed <-
          injected.Transport_faulty.inj_delayed + inj.Transport_faulty.inj_delayed;
        let log =
          List.map
            (fun (fe : Transport_faulty.fault_event) ->
              (fe.Transport_faulty.fe_round, fe.Transport_faulty.fe_what))
            (F.fault_events ep)
          @ List.map
              (fun (e : Sync.event) -> (e.Sync.e_round, e.Sync.e_what))
              (Sync.events sync)
          @ (match slot.sl_crashed_at with
            | Some at -> [ (at, "fault: crash") ]
            | None -> [])
        in
        slot.sl_fault_log <- List.sort compare log)
      cells;
    match List.find_map (fun s -> s.sl_error) slots with
    | Some err -> Error err
    | None ->
        let rounds =
          List.fold_left
            (fun acc s ->
              match s.sl_rounds with (r, _) :: _ -> max acc r | [] -> acc)
            0 slots
        in
        let sc_rounds =
          List.init rounds (fun i ->
              let round = i + 1 in
              List.fold_left
                (fun acc s ->
                  match List.assoc_opt round s.sl_rounds with
                  | Some nr -> Node_id.Map.add s.sl_id nr acc
                  | None -> acc)
                Node_id.Map.empty slots)
        in
        let schedule = { Oracle.sc_nodes = correct; sc_rounds } in
        (* Wire accounting at the runtime's accept points: every message a
           live node kept post-dedup, attributed to its delivery round —
           the same currency as the simulator's and the oracle's. *)
        let wire = Ubpa_obs.Wire.create () in
        List.iteri
          (fun i recorded ->
            let round = i + 1 in
            Node_id.Map.iter
              (fun id (nr : Oracle.node_round) ->
                List.iter
                  (fun (src, payload) ->
                    Ubpa_obs.Wire.record wire ~round ~sender:src ~recipient:id
                      ~kind:"msg" ~bits:(P.encoded_bits payload))
                  nr.Oracle.nr_inbox)
              recorded)
          sc_rounds;
        let joins =
          List.map
            (fun (id, _) ->
              {
                Trace.round = 1;
                node = Some id;
                kind = Trace.Join;
                what = "join (correct)";
              })
            correct
        in
        let max_event_round =
          List.fold_left
            (fun acc s ->
              List.fold_left (fun acc (r, _) -> max acc r) acc s.sl_fault_log)
            rounds slots
        in
        let events =
          joins
          @ List.concat_map
              (fun i ->
                let round = i + 1 in
                List.concat_map
                  (fun s ->
                    Option.value ~default:[] (List.assoc_opt round s.sl_events)
                    @ List.filter_map
                        (fun (r, what) ->
                          if r = round then
                            Some
                              {
                                Trace.round;
                                node = Some s.sl_id;
                                kind = Trace.Fault;
                                what;
                              }
                          else None)
                        s.sl_fault_log)
                  slots)
              (List.init max_event_round Fun.id)
        in
        Ok
          {
            r_transport = B.name;
            r_rounds = rounds;
            r_nodes =
              List.map
                (fun s ->
                  {
                    ns_id = s.sl_id;
                    ns_output = s.sl_last_output;
                    ns_decide_round = s.sl_first_output;
                    ns_halted_at = s.sl_halted_at;
                    ns_crashed_at = s.sl_crashed_at;
                  })
                slots;
            r_schedule = schedule;
            r_events = events;
            r_wire = wire;
            r_frames = List.fold_left (fun acc s -> acc + s.sl_frames) 0 slots;
            r_frame_bytes =
              List.fold_left (fun acc s -> acc + s.sl_frame_bytes) 0 slots;
            r_ctrl_frames =
              List.fold_left (fun acc s -> acc + s.sl_ctrl_frames) 0 slots;
            r_late_frames = List.fold_left (fun acc s -> acc + s.sl_late) 0 slots;
            r_missing = List.fold_left (fun acc s -> acc + s.sl_missing) 0 slots;
            r_injected = injected;
            r_dead =
              List.concat_map
                (fun s ->
                  List.rev_map (fun (p, r) -> (s.sl_id, p, r)) s.sl_dead_marks)
                slots;
            r_crashed =
              List.filter_map
                (fun s -> Option.map (fun at -> (s.sl_id, at)) s.sl_crashed_at)
                slots;
          }

  let run ?(transport = `Domains) ?(round_ms = 0.) ?(max_rounds = 64)
      ?(faults = Ubpa_faults.empty) ?(fault_seed = 1L) ?(dead_after = 2) ~correct
      () =
    let ids = List.map fst correct in
    let known id = List.exists (Node_id.equal id) ids in
    if not available then Error unavailable_reason
    else if correct = [] then Error "Runner.run: no nodes"
    else if List.length (Node_id.sorted ids) <> List.length correct then
      Error "Runner.run: duplicate node identifiers"
    else if max_rounds < 1 then Error "Runner.run: max_rounds must be >= 1"
    else if dead_after < 1 then Error "Runner.run: dead_after must be >= 1"
    else if not (List.for_all known (Ubpa_faults.victims faults)) then
      Error "Runner.run: fault plan names a node outside the population"
    else if Ubpa_faults.has_recovery faults then
      Error
        "Runner.run: crash-recovery/rejoin plans are not supported by the \
         runtime (a real crashed process cannot resume)"
    else if Ubpa_faults.crashes faults <> [] && round_ms <= 0. then
      Error
        "Runner.run: crash/leave faults need --round-ms > 0 (without a \
         deadline, peers would wait on the crashed node forever)"
    else
      let m : (module Transport.S) =
        match transport with
        | `Domains -> (module Transport_domains)
        | `Socket -> (module Transport_socket)
      in
      exec m ~plan:faults ~fault_seed ~round_ms ~dead_after ~max_rounds ~correct

  let replay ?delivered r = Oracle.replay ?delivered r.r_schedule
end
