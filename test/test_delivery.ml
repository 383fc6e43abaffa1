(* Delivery cores: differential tests against the seed core.

   [Delivery.route_reference] is the seed engine's list-scan delivery kept
   verbatim as an executable specification; these tests replay randomized
   traffic through it and through [Delivery.route_arena], the fast core,
   and require bit-for-bit identical inboxes, delivery counts and wire
   counters, then repeat the comparison at the network level with full
   protocol runs under both cores. *)

open Ubpa_util
open Ubpa_sim

let id i = Node_id.of_int i

(* ----- randomized traffic through both cores ----- *)

(* One round's worth of traffic: a universe of nodes of which a random
   subset is present (models halted / not-yet-joined recipients), unicasts
   and broadcasts in random proportion, with deliberate duplicate sends —
   same (sender, payload) repeated as broadcast, as unicast, and as a
   broadcast/unicast mix. Node ids start at [base]. *)
let random_traffic ~base rng =
  let universe = 2 + Rng.int rng 9 in
  let ids = List.init universe (fun i -> id (base + i)) in
  let present =
    List.filter (fun _ -> Rng.int rng 4 > 0) ids |> Node_id.Set.of_list
  in
  let n_msgs = Rng.int rng 60 in
  let envelopes =
    List.concat_map
      (fun _ ->
        let src = Rng.pick rng ids in
        (* Small payload space so duplicates are common. *)
        let payload = Rng.int rng 5 in
        let env =
          if Rng.bool rng then Envelope.broadcast ~src payload
          else Envelope.send ~src ~dst:(Rng.pick rng ids) payload
        in
        (* Occasionally send the exact same envelope again back to back. *)
        if Rng.int rng 4 = 0 then [ env; env ] else [ env ])
      (List.init n_msgs Fun.id)
  in
  (present, envelopes)

let same_inboxes a b =
  Node_id.Map.equal
    (fun a b ->
      List.length a = List.length b
      && List.for_all2
           (fun (s1, p1) (s2, p2) -> Node_id.equal s1 s2 && p1 = p2)
           a b)
    a b

(* Run one core with a wire observer attached at its accept point; the
   [Wire.equal] comparison below is multiset-shaped (per round, recipient
   and kind), which is exactly the cross-core guarantee — cores may visit
   a broadcast's recipients in different orders. *)
let with_wire core ~present ~envelopes =
  let wire = Ubpa_obs.Wire.create () in
  let on_deliver ~recipient ~src payload =
    Ubpa_obs.Wire.record wire ~round:1 ~sender:src ~recipient ~kind:"m"
      ~bits:(16 + (8 * payload))
  in
  let inboxes, count = core ~on_deliver ~present ~envelopes in
  (inboxes, count, wire)

let reference ~on_deliver ~present ~envelopes =
  Delivery.route_reference ~on_deliver ~equal:Int.equal ~present ~envelopes
    ()

let check_same ~present ~envelopes =
  let ref_inboxes, ref_count, ref_wire =
    with_wire reference ~present ~envelopes
  in
  let inboxes, count, wire =
    with_wire Helpers.arena_route ~present ~envelopes
  in
  Alcotest.(check int) "arena: delivered count" ref_count count;
  Alcotest.(check bool)
    "arena: inboxes identical" true
    (same_inboxes ref_inboxes inboxes);
  Alcotest.(check bool)
    "arena: wire counters identical" true
    (Ubpa_obs.Wire.equal ref_wire wire)

let test_differential_random () =
  let rng = Rng.create 0xD311FEA7L in
  for _ = 1 to 300 do
    let present, envelopes = random_traffic ~base:0 rng in
    check_same ~present ~envelopes
  done

let test_differential_adversarial () =
  (* Hand-built worst cases for the dedup keying. *)
  let present = Node_id.Set.of_list [ id 0; id 1; id 2 ] in
  let b = Envelope.broadcast in
  let u = Envelope.send in
  let cases =
    [
      (* Same payload broadcast twice by the same sender: one delivery each. *)
      [ b ~src:(id 0) 7; b ~src:(id 0) 7 ];
      (* Same payload from two senders: both delivered (keyed by sender). *)
      [ b ~src:(id 0) 7; b ~src:(id 1) 7 ];
      (* Unicast then broadcast of the same (sender, payload): the broadcast
         must still reach the recipients the unicast missed. *)
      [ u ~src:(id 0) ~dst:(id 1) 7; b ~src:(id 0) 7 ];
      (* Broadcast then duplicate unicast: the unicast adds nothing. *)
      [ b ~src:(id 0) 7; u ~src:(id 0) ~dst:(id 2) 7 ];
      (* Unicast to an absent node only. *)
      [ u ~src:(id 0) ~dst:(id 9) 7 ];
      (* Sender not present still delivers (rushing nodes may have halted). *)
      [ b ~src:(id 9) 3 ];
      [];
      (* Where an inbox stops merging and starts sharing the sealed
         broadcast list: a unicast sender below, above and between the
         broadcast senders. *)
      [ b ~src:(id 1) 7; b ~src:(id 2) 8; u ~src:(id 0) ~dst:(id 1) 5 ];
      [ b ~src:(id 0) 7; b ~src:(id 1) 8; u ~src:(id 2) ~dst:(id 1) 5 ];
      [ b ~src:(id 0) 7; b ~src:(id 2) 8; u ~src:(id 1) ~dst:(id 0) 5 ];
      (* One sender's broadcast and unicast, in both send orders. *)
      [ b ~src:(id 0) 6; b ~src:(id 1) 7; u ~src:(id 1) ~dst:(id 0) 8;
        b ~src:(id 2) 9 ];
      [ b ~src:(id 0) 6; u ~src:(id 1) ~dst:(id 0) 8; b ~src:(id 1) 7;
        b ~src:(id 2) 9 ];
      (* An exclusion at the first sealed position, and one at the last. *)
      [ u ~src:(id 0) ~dst:(id 1) 7; b ~src:(id 0) 7; b ~src:(id 1) 8;
        b ~src:(id 2) 9 ];
      [ b ~src:(id 0) 7; b ~src:(id 1) 8; u ~src:(id 2) ~dst:(id 0) 9;
        b ~src:(id 2) 9 ];
    ]
  in
  List.iter (fun envelopes -> check_same ~present ~envelopes) cases

let test_inbox_order () =
  (* Inboxes are sorted by sender, same-sender messages in send order. *)
  let present = Node_id.Set.of_list [ id 0 ] in
  let envelopes =
    [
      Envelope.broadcast ~src:(id 2) 20;
      Envelope.broadcast ~src:(id 1) 10;
      Envelope.broadcast ~src:(id 2) 21;
      Envelope.broadcast ~src:(id 1) 11;
    ]
  in
  let on_deliver ~recipient:_ ~src:_ _ = () in
  List.iter
    (fun (name, core) ->
      let inboxes, _ = core ~on_deliver ~present ~envelopes in
      Alcotest.(check (list (pair int int)))
        (name ^ ": sender-sorted, send order within sender")
        [ (1, 10); (1, 11); (2, 20); (2, 21) ]
        (List.map
           (fun (s, p) -> (Node_id.to_int s, p))
           (Node_id.Map.find (id 0) inboxes)))
    [ ("reference", reference); ("arena", Helpers.arena_route) ]

(* ----- arena core: reused state and lazy views ----- *)

(* The arena state is the whole point of the arena core: one grow-only
   structure fed round after round, presence changing under it, with every
   round's view still matching the reference core on fresh state. This is
   the test that would catch stale-round leakage (marks, slices or dedup
   tables surviving a clear). The ids move up by 10 every 25 rounds, so
   the state also grows past its initial 16 participants while in use. *)
let test_arena_state_reuse () =
  let rng = Rng.create 0xA7E4A57A7EL in
  let state : int Delivery.arena_state = Delivery.arena_create () in
  for i = 0 to 199 do
    let present, envelopes = random_traffic ~base:(i / 25 * 10) rng in
    let ref_inboxes, ref_count =
      Delivery.route_reference ~equal:Int.equal ~present ~envelopes ()
    in
    let view =
      Delivery.route_arena ~state ~equal:Int.equal ~present ~envelopes ()
    in
    Alcotest.(check int)
      "reused state: delivered" ref_count
      (Delivery.view_delivered view);
    Alcotest.(check bool)
      "reused state: inboxes" true
      (same_inboxes ref_inboxes (Delivery.view_to_map view));
    (* Lazy reads agree with the materialised map, including nodes that
       are unknown or absent this round. *)
    Node_id.Map.iter
      (fun nid inbox ->
        Alcotest.(check (list (pair int int)))
          "view_inbox = map entry"
          (List.map (fun (s, p) -> (Node_id.to_int s, p)) inbox)
          (List.map
             (fun (s, p) -> (Node_id.to_int s, p))
             (Delivery.view_inbox view nid)))
      ref_inboxes;
    Alcotest.(check (list (pair int int)))
      "unknown recipient reads empty" []
      (List.map
         (fun (s, p) -> (Node_id.to_int s, p))
         (Delivery.view_inbox view (id 99)));
    Alcotest.(check bool)
      "view_present = present set" true
      (Node_id.Set.equal present
         (Node_id.Set.of_list (Delivery.view_present view)))
  done

(* Inbox lists are shared, never rebuilt or overwritten: a list read in
   one round still holds that round's inbox after later rounds reuse the
   state. *)
let test_arena_inbox_retention () =
  let rng = Rng.create 0x5EA1ED1157L in
  let state : int Delivery.arena_state = Delivery.arena_create () in
  let route (present, envelopes) =
    Delivery.route_arena ~state ~equal:Int.equal ~present ~envelopes ()
  in
  for _ = 1 to 100 do
    let ((present, envelopes) as round) = random_traffic ~base:0 rng in
    let ref_inboxes, _ =
      Delivery.route_reference ~equal:Int.equal ~present ~envelopes ()
    in
    let view = route round in
    let kept =
      Node_id.Map.mapi (fun nid _ -> Delivery.view_inbox view nid) ref_inboxes
    in
    for _ = 1 to 2 do
      let view = route (random_traffic ~base:0 rng) in
      List.iter
        (fun nid -> ignore (Delivery.view_inbox view nid))
        (Delivery.view_present view)
    done;
    Alcotest.(check bool)
      "kept inboxes unchanged two rounds later" true
      (same_inboxes ref_inboxes kept)
  done

(* An all-broadcast round at n = 301: every inbox is the one sealed list,
   so routing the round and reading every inbox costs a few words per
   node, not a copy of the n-entry list per recipient (about 14n words). *)
let test_arena_shared_inbox_allocation () =
  let n = 301 in
  let ids = List.init n id in
  let present = Node_id.Set.of_list ids in
  let envelopes =
    List.map (fun src -> Envelope.broadcast ~src (Node_id.to_int src)) ids
  in
  let state : int Delivery.arena_state = Delivery.arena_create () in
  let route () =
    Delivery.route_arena ~state ~equal:Int.equal ~present ~envelopes ()
  in
  ignore (route ());
  let w0 = Gc.minor_words () in
  let view = route () in
  List.iter (fun nid -> ignore (Delivery.view_inbox view nid)) ids;
  let per_node = (Gc.minor_words () -. w0) /. float_of_int n in
  let ref_inboxes, _ =
    Delivery.route_reference ~equal:Int.equal ~present ~envelopes ()
  in
  Alcotest.(check bool)
    "second round's inboxes match the reference" true
    (same_inboxes ref_inboxes (Delivery.view_to_map view));
  if per_node >= 64. then
    Alcotest.failf "route + reads: %.1f minor words per node, bound 64" per_node

(* QCheck differential: structured random batches — unicasts, broadcasts,
   back-to-back duplicates, absent recipients, absent senders — through
   the arena core against the reference core. *)
let gen_batch =
  QCheck2.Gen.(
    let* universe = int_range 2 9 in
    let* present_mask = array_size (pure universe) bool in
    let* msgs =
      list_size (int_bound 50)
        (triple (int_bound universe)
           (option (int_bound universe))
           (int_bound 4))
    in
    pure (universe, present_mask, msgs))

let prop_arena_differential =
  QCheck2.Test.make ~count:300
    ~name:"arena vs reference on random envelope batches"
    gen_batch
    (fun (universe, present_mask, msgs) ->
      let present =
        List.init universe Fun.id
        |> List.filter (fun i -> present_mask.(i))
        |> List.map id |> Node_id.Set.of_list
      in
      let envelopes =
        List.concat
          (List.mapi
             (fun i (src, dst, payload) ->
               let env =
                 match dst with
                 | None -> Envelope.broadcast ~src:(id src) payload
                 | Some d -> Envelope.send ~src:(id src) ~dst:(id d) payload
               in
               (* Every third envelope is sent twice back to back, so the
                  dedup paths are always exercised. *)
               if i mod 3 = 0 then [ env; env ] else [ env ])
             msgs)
      in
      let ref_inboxes, ref_count, ref_wire =
        with_wire reference ~present ~envelopes
      in
      let inboxes, count, wire =
        with_wire Helpers.arena_route ~present ~envelopes
      in
      count = ref_count
      && same_inboxes ref_inboxes inboxes
      && Ubpa_obs.Wire.equal ref_wire wire)

(* ----- full protocol runs under both cores ----- *)

module C = Unknown_ba.Consensus.Make (Unknown_ba.Value.Int)
module Net = Network.Make (C)
module A = Ubpa_adversary.Consensus_attacks.Make (Unknown_ba.Value.Int)

let consensus_run ~delivery =
  let ids = Node_id.scatter ~seed:41L 10 in
  let correct_ids = List.filteri (fun i _ -> i < 8) ids in
  let byz_ids = List.filteri (fun i _ -> i >= 8) ids in
  let net =
    Net.create ~delivery
      ~correct:(List.mapi (fun i nid -> (nid, i mod 2)) correct_ids)
      ~byzantine:(List.map (fun nid -> (nid, A.split_world 0 1)) byz_ids)
      ()
  in
  let finished = Net.run ~max_rounds:300 net in
  (finished, Net.round net, Metrics.delivered (Net.metrics net),
   Net.outputs net)

let test_engine_equivalence () =
  let f2, r2, d2, o2 = consensus_run ~delivery:Delivery.Naive in
  let f3, r3, d3, o3 = consensus_run ~delivery:Delivery.Arena in
  Alcotest.(check bool)
    "all halted" true
    (f2 = `All_halted && f3 = `All_halted);
  Alcotest.(check int) "arena: same rounds" r2 r3;
  Alcotest.(check int) "arena: same deliveries" d2 d3;
  Alcotest.(check (list (pair int int)))
    "arena: same decisions"
    (List.map (fun (nid, v) -> (Node_id.to_int nid, v)) o2)
    (List.map (fun (nid, v) -> (Node_id.to_int nid, v)) o3)

(* [wire_accounting:false] must change what is observed, never what
   happens: same run, empty wire log, delivered metrics intact. *)
let test_wire_accounting_off () =
  let run ~delivery ~wire_accounting =
    let ids = Node_id.scatter ~seed:41L 10 in
    let correct_ids = List.filteri (fun i _ -> i < 8) ids in
    let byz_ids = List.filteri (fun i _ -> i >= 8) ids in
    let net =
      Net.create ~delivery ~wire_accounting
        ~correct:(List.mapi (fun i nid -> (nid, i mod 2)) correct_ids)
        ~byzantine:(List.map (fun nid -> (nid, A.split_world 0 1)) byz_ids)
        ()
    in
    ignore (Net.run ~max_rounds:300 net);
    ( Net.round net,
      Metrics.delivered (Net.metrics net),
      Ubpa_obs.Wire.messages (Net.wire net),
      Net.outputs net )
  in
  List.iter
    (fun delivery ->
      let r_on, d_on, w_on, o_on = run ~delivery ~wire_accounting:true in
      let r_off, d_off, w_off, o_off = run ~delivery ~wire_accounting:false in
      Alcotest.(check int) "same rounds" r_on r_off;
      Alcotest.(check int) "same delivered metric" d_on d_off;
      Alcotest.(check bool) "wire recorded when on" true (w_on > 0);
      Alcotest.(check int) "wire silent when off" 0 w_off;
      Alcotest.(check bool) "same outputs" true (o_on = o_off))
    [ Delivery.Naive; Delivery.Arena ]

(* ----- trace-level determinism across cores ----- *)

(* Stronger than outcome equivalence: the same seed must yield the same
   execution event for event, so the JSONL traces are byte-identical —
   including every fault decision when a plan is active, since the fault
   stream is keyed to engine-determined orders only. *)
let traced_jsonl ~delivery ?faults () =
  let ids = Node_id.scatter ~seed:41L 10 in
  let correct_ids = List.filteri (fun i _ -> i < 8) ids in
  let byz_ids = List.filteri (fun i _ -> i >= 8) ids in
  let trace = Trace.create () in
  let net =
    Net.create ~delivery ~seed:17L ?faults ~trace
      ~correct:(List.mapi (fun i nid -> (nid, i mod 2)) correct_ids)
      ~byzantine:(List.map (fun nid -> (nid, A.split_world 0 1)) byz_ids)
      ()
  in
  ignore (Net.run ~max_rounds:300 net);
  Trace.to_jsonl trace

(* Loss, duplication, crash-recover, send and receive omission and
   delay over the population of [traced_jsonl]. *)
let fault_plan =
  let ids = Node_id.scatter ~seed:41L 10 in
  Ubpa_faults.make ~loss:0.15 ~dup:0.1
    [
      (List.nth ids 0, [ Ubpa_faults.crash ~at:3 ~recover:6 () ]);
      ( List.nth ids 1,
        [ Ubpa_faults.send_omission ~first:2 ~last:8 ~prob:0.5 () ] );
      ( List.nth ids 2,
        [ Ubpa_faults.recv_omission ~first:2 ~last:8 ~prob:0.5 () ] );
      (* Overlaps the recv-omission window on another node, so both
         post-route filters draw from the fault stream in one round. *)
      ( List.nth ids 3,
        [ Ubpa_faults.delay ~first:4 ~last:9 ~prob:0.5 ~rounds:1 () ] );
    ]

let test_trace_determinism () =
  let reference = traced_jsonl ~delivery:Delivery.Naive () in
  Alcotest.(check string)
    "no faults: arena byte-identical JSONL" reference
    (traced_jsonl ~delivery:Delivery.Arena ());
  let faults = fault_plan in
  let reference = traced_jsonl ~delivery:Delivery.Naive ~faults () in
  Alcotest.(check bool)
    "fault plan: delay draws fired" true
    (Helpers.contains reference "fault: delay");
  (* The post-route filters read each present inbox once, in ascending id
     order, whichever core routed it — so they draw from the fault stream
     in the same order and the trace stays byte-identical. *)
  Alcotest.(check string)
    "fault plan: arena byte-identical JSONL" reference
    (traced_jsonl ~delivery:Delivery.Arena ~faults ())

(* The same two traces pinned to fixed bytes: the cross-core check above
   holds whatever both cores print, so a change to the round loop they
   share could move both traces at once and still pass it. *)
let test_trace_fingerprints () =
  List.iter
    (fun delivery ->
      Helpers.check_fp "no faults: JSONL fingerprint" 0x54b271689fab35beL
        (Helpers.fnv1a (traced_jsonl ~delivery ()));
      Helpers.check_fp "fault plan: JSONL fingerprint"
        0x378b5e728ee2738dL
        (Helpers.fnv1a (traced_jsonl ~delivery ~faults:fault_plan ())))
    [ Delivery.Naive; Delivery.Arena ]

(* ----- zero-correct-node networks ----- *)

let test_no_correct_nodes () =
  let empty = Net.create ~correct:[] ~byzantine:[] () in
  Alcotest.(check bool)
    "empty network" true
    (Net.run empty = `No_correct_nodes);
  let byz_only =
    Net.create ~correct:[]
      ~byzantine:
        (List.map
           (fun nid -> (nid, A.split_world 0 1))
           (Node_id.scatter ~seed:42L 3))
      ()
  in
  Alcotest.(check bool)
    "byzantine-only network" true
    (Net.run byz_only = `No_correct_nodes);
  Alcotest.(check int) "no rounds consumed" 0 (Net.round byz_only)

let test_queued_join_still_runs () =
  (* A queued correct join means the run is not vacuous. *)
  let net = Net.create ~correct:[] ~byzantine:[] () in
  Net.join_correct net (id 1) 0;
  Alcotest.(check bool)
    "queued correct join runs" true
    (Net.run ~max_rounds:50 net <> `No_correct_nodes)

(* ----- clock shim ----- *)

let test_clock_monotonic () =
  let prev = ref (Clock.now_ms ()) in
  for _ = 1 to 1000 do
    let t = Clock.now_ms () in
    Alcotest.(check bool) "now_ms non-decreasing" true (t >= !prev);
    prev := t
  done;
  Alcotest.(check bool)
    "elapsed_ms clamps to >= 0" true
    (Clock.elapsed_ms ~since:(!prev +. 1e9) >= 0.)

let suite =
  ( "delivery",
    [
      Alcotest.test_case "differential: randomized traffic" `Quick
        test_differential_random;
      Alcotest.test_case "differential: adversarial dedup cases" `Quick
        test_differential_adversarial;
      Alcotest.test_case "inbox ordering" `Quick test_inbox_order;
      Alcotest.test_case "arena: reused state matches reference" `Quick
        test_arena_state_reuse;
      Alcotest.test_case "arena: read inboxes survive later rounds" `Quick
        test_arena_inbox_retention;
      Alcotest.test_case "arena: shared inboxes allocate per node, not per message"
        `Quick test_arena_shared_inbox_allocation;
      Alcotest.test_case "engine equivalence: full consensus run" `Quick
        test_engine_equivalence;
      Alcotest.test_case "wire accounting off: same run, silent wire" `Quick
        test_wire_accounting_off;
      Alcotest.test_case "trace determinism across cores (with faults)" `Quick
        test_trace_determinism;
      Alcotest.test_case "traces pinned to fixed bytes (with faults)" `Quick
        test_trace_fingerprints;
      Alcotest.test_case "run on zero-correct network" `Quick
        test_no_correct_nodes;
      Alcotest.test_case "queued correct join is not vacuous" `Quick
        test_queued_join_still_runs;
      Alcotest.test_case "clock shim is monotonic" `Quick test_clock_monotonic;
    ]
    @ Helpers.qcheck_cases [ prop_arena_differential ] )
