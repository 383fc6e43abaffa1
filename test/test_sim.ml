open Ubpa_util
open Ubpa_sim
open Helpers

(* A minimal probe protocol: each round broadcasts (self, round); collects
   everything it hears. Halts after [lifetime] rounds with its log. *)
module Probe = struct
  type input = { lifetime : int }
  type stimulus = Protocol.No_stimulus.t
  type message = Ping of int (* round the ping was sent *)
  type output = (int * Node_id.t * int) list
  (* (round received, sender, round sent) *)

  type state = {
    lifetime : int;
    mutable log : (int * Node_id.t * int) list;
    mutable steps : int;
  }

  let name = "probe"
  let init ~self:_ ~round:_ ~index:_ ({ lifetime } : input) =
    { lifetime; log = []; steps = 0 }
  let pp_message ppf (Ping r) = Fmt.pf ppf "ping(%d)" r

  include Protocol.Structural (struct
    type t = message
  end)

  let step ~self:_ ~round ~stim:_ st ~inbox =
    st.steps <- st.steps + 1;
    List.iter
      (fun (src, Ping r) -> st.log <- (round, src, r) :: st.log)
      inbox;
    let sends = [ (Envelope.Broadcast, Ping round) ] in
    if st.steps >= st.lifetime then (st, [], Protocol.Stop (List.rev st.log))
    else (st, sends, Protocol.Continue)
end

module Net = Network.Make (Probe)

let ids n = Node_id.scatter ~seed:11L n

let mk ?(byz = []) ?stimulus:_ n lifetime =
  let correct = List.map (fun id -> (id, { Probe.lifetime })) (ids n) in
  Net.create ~correct ~byzantine:byz ()

let test_delivery_next_round () =
  let net = mk 3 3 in
  let _ = Net.run net in
  List.iter
    (fun (_, log) ->
      (* pings sent in round r are logged in round r+1 *)
      List.iter
        (fun (recv, _, sent) -> check_int "one-round latency" (sent + 1) recv)
        log)
    (Net.outputs net)

let test_broadcast_includes_self () =
  let net = mk 1 2 in
  let _ = Net.run net in
  match Net.outputs net with
  | [ (id, log) ] ->
      check_true "self delivery"
        (List.exists (fun (_, src, _) -> Node_id.equal src id) log)
  | _ -> Alcotest.fail "expected one node"

let test_all_pairs_delivered () =
  let n = 4 in
  let net = mk n 2 in
  let _ = Net.run net in
  List.iter
    (fun (_, log) ->
      (* round 2 must contain a ping from each of the n nodes *)
      let senders =
        List.filter_map
          (fun (recv, src, _) -> if recv = 2 then Some src else None)
          log
      in
      check_int "n pings in round 2" n (List.length (Node_id.sorted senders)))
    (Net.outputs net)

let test_halted_node_stops () =
  (* One node lives 2 rounds, others 5: the short-lived node must not
     appear in logs after round 3 (its last send is in round 2). *)
  let all = ids 3 in
  let correct =
    List.mapi
      (fun i id -> (id, { Probe.lifetime = (if i = 0 then 2 else 5) }))
      all
  in
  let short = List.nth all 0 in
  let net = Net.create ~correct ~byzantine:[] () in
  let _ = Net.run net in
  List.iter
    (fun (id, log) ->
      if not (Node_id.equal id short) then
        check_false "no pings from halted node after its death"
          (List.exists
             (fun (recv, src, _) -> Node_id.equal src short && recv > 3)
             log))
    (Net.outputs net)

let test_duplicate_payload_suppressed () =
  (* A byzantine node sending the same payload twice in a round is
     delivered once; two different payloads both arrive. *)
  let dup =
    Strategy.v ~name:"dup" (fun _ _ view ->
        if view.Strategy.round = 1 then
          [
            (Envelope.Broadcast, Probe.Ping 100);
            (Envelope.Broadcast, Probe.Ping 100);
            (Envelope.Broadcast, Probe.Ping 200);
          ]
        else [])
  in
  let byz_id = Node_id.of_int 999 in
  let correct = List.map (fun id -> (id, { Probe.lifetime = 3 })) (ids 2) in
  let net = Net.create ~correct ~byzantine:[ (byz_id, dup) ] () in
  let _ = Net.run net in
  List.iter
    (fun (_, log) ->
      let from_byz =
        List.filter (fun (_, src, _) -> Node_id.equal src byz_id) log
      in
      check_int "dedup kept two distinct payloads" 2 (List.length from_byz))
    (Net.outputs net)

let test_point_to_point () =
  let all = ids 3 in
  let target = List.nth all 1 in
  let direct =
    Strategy.v ~name:"direct" (fun _ _ view ->
        if view.Strategy.round = 1 then [ (Envelope.To target, Probe.Ping 42) ]
        else [])
  in
  let byz_id = Node_id.of_int 777 in
  let correct = List.map (fun id -> (id, { Probe.lifetime = 3 })) all in
  let net = Net.create ~correct ~byzantine:[ (byz_id, direct) ] () in
  let _ = Net.run net in
  List.iter
    (fun (id, log) ->
      let got = List.exists (fun (_, src, _) -> Node_id.equal src byz_id) log in
      if Node_id.equal id target then check_true "target got it" got
      else check_false "others did not" got)
    (Net.outputs net)

let test_rushing_view () =
  (* The rushing adversary must see correct-node sends of the current
     round. *)
  let seen = ref false in
  let peek =
    Strategy.v ~name:"peek" (fun _ _ view ->
        if view.Strategy.rushing <> [] then seen := true;
        [])
  in
  let correct = List.map (fun id -> (id, { Probe.lifetime = 2 })) (ids 2) in
  let net =
    Net.create ~correct ~byzantine:[ (Node_id.of_int 5, peek) ] ()
  in
  let _ = Net.run net in
  check_true "rushing view populated" !seen

let test_join_mid_run () =
  let correct = List.map (fun id -> (id, { Probe.lifetime = 6 })) (ids 2) in
  let net = Net.create ~correct ~byzantine:[] () in
  Net.step_round net;
  Net.step_round net;
  let late = Node_id.of_int 123456 in
  Net.join_correct net late { Probe.lifetime = 4 };
  let _ = Net.run net in
  let rep = Net.report net late in
  check_int "joined at round 3" 3 rep.Net.joined_at;
  (* the late node's pings reach the others *)
  List.iter
    (fun (id, log) ->
      if not (Node_id.equal id late) then
        check_true "heard the late joiner"
          (List.exists (fun (_, src, _) -> Node_id.equal src late) log))
    (Net.outputs net)

let test_duplicate_id_rejected () =
  let id = Node_id.of_int 1 in
  Alcotest.check_raises "duplicate ids"
    (Invalid_argument "Network.create: duplicate node identifiers")
    (fun () ->
      ignore
        (Net.create
           ~correct:[ (id, { Probe.lifetime = 1 }); (id, { Probe.lifetime = 1 }) ]
           ~byzantine:[] ()))

(* A join that repeats a present id, correct or Byzantine, fails when it
   is applied, wherever the twin sits. *)
let test_duplicate_join_rejected () =
  let present = ids 2 and byz = Node_id.of_int 5 in
  List.iter
    (fun join ->
      let net =
        Net.create ~correct:[]
          ~byzantine:[ (byz, Strategy.silent) ]
          ()
      in
      List.iter
        (fun id -> Net.join_correct net id { Probe.lifetime = 9 })
        present;
      Net.step_round net;
      join net;
      Alcotest.check_raises "repeated id"
        (Invalid_argument "Network: joining identifier already present")
        (fun () -> Net.step_round net))
    [
      (fun net ->
        Net.join_correct net (List.nth present 1) { Probe.lifetime = 1 });
      (fun net -> Net.join_correct net byz { Probe.lifetime = 1 });
      (fun net -> Net.join_byzantine net (List.hd present) Strategy.silent);
      (fun net ->
        let fresh = Node_id.of_int 77 in
        Net.join_correct net fresh { Probe.lifetime = 1 };
        Net.join_correct net fresh { Probe.lifetime = 1 });
    ]

let test_metrics () =
  let n = 3 in
  let net = mk n 2 in
  let _ = Net.run net in
  let m = Net.metrics net in
  (* lifetime 2: every node broadcasts in round 1 only (halting in round 2
     sends nothing), so sends = n and deliveries = n*n. *)
  check_int "sends" n (Metrics.sends_correct m);
  check_int "deliveries" (n * n) (Metrics.delivered m);
  check_int "rounds" 2 (Metrics.rounds m)

let test_metrics_per_round () =
  let n = 3 in
  let net = mk n 3 in
  let _ = Net.run net in
  let m = Net.metrics net in
  let per_round = Metrics.delivered_per_round m in
  (* lifetime 3: broadcasts in rounds 1 and 2 deliver in rounds 2 and 3. *)
  check_true "rows ascending in round"
    (List.map fst per_round = List.sort compare (List.map fst per_round));
  check_true "rows unique"
    (List.length (List.sort_uniq compare (List.map fst per_round))
    = List.length per_round);
  check_true "per-round counts sum to the total"
    (List.fold_left (fun acc (_, c) -> acc + c) 0 per_round
    = Metrics.delivered m);
  let times = Metrics.round_times_ms m in
  check_int "one timing row per round" (Metrics.rounds m) (List.length times);
  check_true "timing rows ascending"
    (List.map fst times = List.init (Metrics.rounds m) (fun i -> i + 1));
  check_true "timings are non-negative" (List.for_all (fun (_, ms) -> ms >= 0.) times);
  check_true "elapsed is the sum of round times"
    (Float.abs
       (Metrics.elapsed_ms m
       -. List.fold_left (fun acc (_, ms) -> acc +. ms) 0. times)
    < 1e-6)

let test_metrics_json_roundtrip () =
  let net = mk 3 3 in
  let _ = Net.run net in
  let m = Net.metrics net in
  match Metrics.of_json (Metrics.to_json m) with
  | Error msg -> Alcotest.fail msg
  | Ok m' ->
      check_int "rounds" (Metrics.rounds m) (Metrics.rounds m');
      check_int "sends" (Metrics.sends_correct m) (Metrics.sends_correct m');
      check_int "delivered" (Metrics.delivered m) (Metrics.delivered m');
      check_true "per-round rows"
        (Metrics.delivered_per_round m = Metrics.delivered_per_round m');
      check_true "round times"
        (Metrics.round_times_ms m = Metrics.round_times_ms m');
      check_true "kinds" (Metrics.kinds m = Metrics.kinds m')

let test_trace_records () =
  let trace = Trace.create () in
  let correct = List.map (fun id -> (id, { Probe.lifetime = 2 })) (ids 2) in
  let net = Net.create ~trace ~correct ~byzantine:[] () in
  let _ = Net.run net in
  check_true "join events recorded"
    (Trace.find trace ~f:(fun e -> e.Trace.what = "join (correct)") <> None);
  check_true "halt events recorded"
    (Trace.find trace ~f:(fun e -> e.Trace.what = "halt") <> None);
  check_true "events carry typed kinds"
    (Trace.find trace ~f:(fun e -> e.Trace.kind = Trace.Join) <> None
    && Trace.find trace ~f:(fun e -> e.Trace.kind = Trace.Send) <> None
    && Trace.find trace ~f:(fun e -> e.Trace.kind = Trace.Halt) <> None)

let test_trace_json () =
  let trace = Trace.create () in
  let correct = List.map (fun id -> (id, { Probe.lifetime = 2 })) (ids 2) in
  let net = Net.create ~trace ~correct ~byzantine:[] () in
  let _ = Net.run net in
  let events = Trace.events trace in
  (* Every event round-trips through its JSON encoding. *)
  List.iter
    (fun e ->
      match Trace.event_of_json (Trace.event_to_json e) with
      | Ok e' ->
          check_true "event round-trips"
            (e'.Trace.round = e.Trace.round
            && e'.Trace.kind = e.Trace.kind
            && e'.Trace.what = e.Trace.what
            && Option.map Node_id.to_int e'.Trace.node
               = Option.map Node_id.to_int e.Trace.node)
      | Error msg -> Alcotest.fail msg)
    events;
  (* JSONL: one parseable line per event, in order. *)
  let lines =
    Trace.to_jsonl trace |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check_int "one line per event" (List.length events) (List.length lines);
  List.iter
    (fun line ->
      match Ubpa_util.Json.of_string line with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg)
    lines

let test_recordf_disabled_formats_nothing () =
  let calls = ref 0 in
  let pp ppf x =
    incr calls;
    Fmt.int ppf x
  in
  Trace.recordf Trace.disabled ~round:1 "send %a" pp 7;
  check_int "the disabled trace never calls the printer" 0 !calls;
  let trace = Trace.create () in
  Trace.recordf trace ~round:1 "send %a" pp 7;
  check_int "an enabled trace calls it once" 1 !calls;
  check_true "and records the formatted event"
    (Trace.find trace ~f:(fun e -> e.Trace.what = "send 7") <> None)

let test_decision_round_reported () =
  let net = mk 2 4 in
  let _ = Net.run net in
  List.iter
    (fun r ->
      check_true "halted_at = 4" (r.Net.halted_at = Some 4);
      check_true "first output at halt" (r.Net.first_output_round = Some 4))
    (Net.reports net)

let test_run_until () =
  let net = mk 2 100 in
  let res = Net.run_until ~max_rounds:10 net ~stop:(fun n -> Net.round n >= 5) in
  check_true "stopped by predicate" (res = `Stopped);
  check_int "round 5" 5 (Net.round net)

let suite =
  ( "sim",
    [
      quick "messages arrive exactly one round later" test_delivery_next_round;
      quick "broadcast delivers to self" test_broadcast_includes_self;
      quick "broadcast reaches every node" test_all_pairs_delivered;
      quick "halted nodes stop sending and receiving" test_halted_node_stops;
      quick "duplicate (sender,payload) suppressed per round"
        test_duplicate_payload_suppressed;
      quick "point-to-point reaches only the target" test_point_to_point;
      quick "rushing adversary sees current-round sends" test_rushing_view;
      quick "nodes can join mid-run" test_join_mid_run;
      quick "duplicate identifiers rejected" test_duplicate_id_rejected;
      quick "a join repeating a present id is rejected"
        test_duplicate_join_rejected;
      quick "metrics count sends, deliveries, rounds" test_metrics;
      quick "per-round metrics: ordering, timing, totals" test_metrics_per_round;
      quick "metrics JSON round-trip" test_metrics_json_roundtrip;
      quick "trace records engine events" test_trace_records;
      quick "trace events serialize to JSON/JSONL" test_trace_json;
      quick "recordf on the disabled trace formats nothing"
        test_recordf_disabled_formats_nothing;
      quick "reports carry decision rounds" test_decision_round_reported;
      quick "run_until stops on predicate" test_run_until;
    ] )
