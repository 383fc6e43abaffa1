open Ubpa_util
open Ubpa_sim

(* Node processes. A node spends nearly all of its time blocked in a
   system call (a read on the peer it waits for), so a system thread is
   enough: unlike a domain it costs no stop-the-world on spawn, join or
   minor GC, and it has no cap of 128 per program. [Thread.join] does
   not re-raise what the thread died of, so the handle carries it
   across. *)
type handle = { h_thread : Thread.t; h_exn : exn option ref }

let spawn f =
  let h_exn = ref None in
  let h_thread =
    Thread.create (fun () -> try f () with e -> h_exn := Some e) ()
  in
  { h_thread; h_exn }

let join h =
  Thread.join h.h_thread;
  Option.iter raise !(h.h_exn)

module Make (P : Protocol.S) = struct
  module Oracle = Replay.Make (P)
  module K = Kernel.Make (P)

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

  let available = true
  let unavailable_reason = ""

  (* Per-node recording cell. Written only by the owning node's thread
     while it runs; read only by the coordinator after the join, which
     provides the synchronization edge. The node's process is a one-node
     round kernel over its own trace, which records the node's sends,
     outputs and halt in the simulator's vocabulary, then its faults;
     its [down_since] is the round the fault plan crashed the process. *)
  type slot = {
    sl_k : K.t;
    sl_node : K.node;
    mutable sl_rounds : (int * Oracle.node_round) list; (* newest first *)
    mutable sl_frame_bytes : int;
    mutable sl_frames : int;
    mutable sl_ctrl_frames : int;
    mutable sl_late : int;
    mutable sl_missing : int;
    mutable sl_dead_marks : (Node_id.t * int) list; (* peer, round; newest first *)
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
      ~(slot : slot) ~(ids : Node_id.t array) ~plan ~(sync : Sync.t)
      ~(ep : endpoint) ~max_rounds =
    let k = slot.sl_k and node = slot.sl_node in
    let self = node.id in
    let inbox = ref [] in
    k.round <- 1;
    let running = ref true in
    let marker kind = { Frame.src = self; round = k.round; kind; body = "" } in
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
               k.round);
      Array.iter (fun id -> F.send ep ~dst:id (marker Frame.Halt)) ids;
      ignore (F.flush ep : (unit, Transport.error) result);
      running := false
    in
    (* The send filter: every kept send goes out as a data frame. *)
    let transmit _ (env : P.message Envelope.t) =
      let frame =
        {
          Frame.src = self;
          round = k.round;
          kind = Frame.Data;
          body = Frame.marshal_message env.payload;
        }
      in
      (match env.dst with
      | Envelope.To id -> F.send ep ~dst:id frame
      | Envelope.Broadcast ->
          (* Every node gets the frame, the sender and even halted ones
             included: receivers that the model says are absent next
             round drop it on receipt, mirroring present-set routing. *)
          Array.iter (fun id -> F.send ep ~dst:id frame) ids);
      true
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
      if Ubpa_faults.status plan ~node:self ~round:k.round <> `Up then begin
        (* Hard process crash: no farewell marker, no sends — the node
           simply stops, and peers find out through the liveness
           tracker's deadline path. *)
        node.down_since <- Some k.round;
        running := false
      end
      else begin
        (match K.call k node ~stim:[] node.state ~inbox:!inbox with
        | exception e ->
            slot.sl_error <-
              Some
                (Printf.sprintf "node %d raised at round %d: %s"
                   (Node_id.to_int self) k.round (Printexc.to_string e));
            node.halted_at <- Some k.round
        | (_, sends, _) as step ->
            slot.sl_rounds <-
              (k.round, { Oracle.nr_inbox = !inbox; nr_sends = sends })
              :: slot.sl_rounds;
            K.apply k node ~send:transmit step;
            k.pending <- []);
        (* End-of-round marker: Done while running, Halt as a farewell.
           Per-edge FIFO puts it after every Data frame of this round,
           so a peer holding our marker holds all our data too. *)
        let halting = node.halted_at <> None in
        let m = marker (if halting then Frame.Halt else Frame.Done) in
        Array.iter (fun id -> F.send ep ~dst:id m) ids;
        match F.flush ep with
        | Error e -> broken e
        | Ok () when halting || k.round >= max_rounds -> running := false
        | Ok () -> (
            Sync.begin_round sync ~round:k.round ~now:(Unix.gettimeofday ());
            Sync.offer sync (F.note_round ep k.round);
            match await () with
            | Error e -> broken e
            | Ok v ->
                slot.sl_missing <-
                  slot.sl_missing + List.length v.Sync.v_missing;
                List.iter
                  (fun p ->
                    slot.sl_dead_marks <- (p, k.round) :: slot.sl_dead_marks)
                  v.Sync.v_newly_dead;
                inbox :=
                  assemble_inbox
                    (List.map
                       (fun (f : Frame.t) ->
                         ( f.Frame.src,
                           (Frame.unmarshal_message f.Frame.body : P.message) ))
                       v.Sync.v_inbox);
                k.round <- k.round + 1)
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
    let ascending =
      List.sort (fun (a, _) (b, _) -> Node_id.compare a b) correct
    in
    (* The run's sender index, complete before any node thread starts and
       only read after that, so the threads share it. *)
    let index = Interner.of_ids (List.map fst ascending) in
    let slots =
      List.map
        (fun (id, input) ->
          let node = K.node ~index ~round:1 id input in
          {
            sl_k = K.create ~trace:(Trace.create ()) [| node |];
            sl_node = node;
            sl_rounds = [];
            sl_frame_bytes = 0;
            sl_frames = 0;
            sl_ctrl_frames = 0;
            sl_late = 0;
            sl_missing = 0;
            sl_dead_marks = [];
            sl_error = None;
          })
        ascending
    in
    let id_list = List.map fst ascending in
    let ids = Array.of_list id_list in
    let hub = F.create ~ids:id_list in
    let cells =
      List.map
        (fun slot ->
          let ep = F.endpoint hub ~self:slot.sl_node.id in
          let sync = Sync.create ~peers:id_list ~round_ms ~dead_after in
          (slot, ep, sync))
        slots
    in
    let handles =
      List.map
        (fun (slot, ep, sync) ->
          spawn (fun () ->
              try
                node_loop (module F) ~slot ~ids ~plan ~sync ~ep ~max_rounds
              with e ->
                slot.sl_error <-
                  Some
                    (Printf.sprintf "node %d died: %s"
                       (Node_id.to_int slot.sl_node.id)
                       (Printexc.to_string e))))
        cells
    in
    List.iter join handles;
    F.close hub;
    (* Collect the per-endpoint fault observations now the owners are
       gone (join is the synchronization edge) into each node's trace,
       after its own events. Sorting by (round, what) inside each owner
       makes the event stream a pure function of what was injected,
       independent of arrival interleaving. *)
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
          @ (match slot.sl_node.down_since with
            | Some at -> [ (at, "fault: crash") ]
            | None -> [])
        in
        List.iter
          (fun (round, what) ->
            Trace.record slot.sl_k.tr ~round ~node:slot.sl_node.id
              ~kind:Trace.Fault what)
          (List.sort compare log))
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
                  | Some nr -> Node_id.Map.add s.sl_node.id nr acc
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
        (* Per round, per node: its sends, outputs and halt, then its
           faults. *)
        let recorded = List.map (fun s -> Trace.events s.sl_k.tr) slots in
        let last =
          List.fold_left
            (List.fold_left (fun acc (e : Trace.event) -> max acc e.round))
            rounds recorded
        in
        let events =
          joins
          @ List.concat_map
              (fun i ->
                List.concat_map
                  (List.filter (fun (e : Trace.event) -> e.round = i + 1))
                  recorded)
              (List.init last Fun.id)
        in
        let sum f = List.fold_left (fun acc s -> acc + f s) 0 slots in
        Ok
          {
            r_transport = B.name;
            r_rounds = rounds;
            r_nodes =
              List.map
                (fun s ->
                  let n = s.sl_node in
                  {
                    ns_id = n.id;
                    ns_output = n.last_output;
                    ns_decide_round = n.first_output_round;
                    ns_halted_at = n.halted_at;
                    ns_crashed_at = n.down_since;
                  })
                slots;
            r_schedule = schedule;
            r_events = events;
            r_wire = wire;
            r_frames = sum (fun s -> s.sl_frames);
            r_frame_bytes = sum (fun s -> s.sl_frame_bytes);
            r_ctrl_frames = sum (fun s -> s.sl_ctrl_frames);
            r_late_frames = sum (fun s -> s.sl_late);
            r_missing = sum (fun s -> s.sl_missing);
            r_injected = injected;
            r_dead =
              List.concat_map
                (fun s ->
                  List.rev_map
                    (fun (p, r) -> (s.sl_node.id, p, r))
                    s.sl_dead_marks)
                slots;
            r_crashed =
              List.filter_map
                (fun s ->
                  let n = s.sl_node in
                  Option.map (fun at -> (n.id, at)) n.down_since)
                slots;
          }

  let run ?(transport = `Domains) ?(round_ms = 0.) ?(max_rounds = 64)
      ?(faults = Ubpa_faults.empty) ?(fault_seed = 1L) ?(dead_after = 2) ~correct
      () =
    let ids = List.map fst correct in
    let known id = List.exists (Node_id.equal id) ids in
    if correct = [] then Error "Runner.run: no nodes"
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
