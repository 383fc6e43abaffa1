(** Fault-injection subsystem: plan validation and queries, then the
    engine-level semantics — crash/recover windows, omission, loss, the
    all-halted write-off — and the zero-cost guarantee that an empty plan
    leaves a run byte-identical to no plan at all. *)

open Ubpa_util
open Ubpa_sim
open Helpers
module F = Ubpa_faults

let id i = Node_id.of_int i

(* ----- plan validation ----- *)

let rejects msg f =
  check_true msg
    (match f () with
    | exception Invalid_argument _ -> true
    | (_ : F.plan) -> false)

let test_validation () =
  rejects "loss > 1 rejected" (fun () -> F.make ~loss:1.5 []);
  rejects "negative dup rejected" (fun () -> F.make ~dup:(-0.1) []);
  rejects "round 0 rejected" (fun () ->
      F.make [ (id 1, [ F.crash ~at:0 () ]) ]);
  rejects "recover before crash rejected" (fun () ->
      F.make [ (id 1, [ F.crash ~at:5 ~recover:5 () ]) ]);
  rejects "rejoin before leave rejected" (fun () ->
      F.make [ (id 1, [ F.leave ~at:4 ~rejoin:3 () ]) ]);
  rejects "omission prob > 1 rejected" (fun () ->
      F.make [ (id 1, [ F.send_omission ~first:1 ~prob:2.0 () ]) ]);
  rejects "duplicate node rejected" (fun () ->
      F.make [ (id 1, [ F.crash ~at:2 () ]); (id 1, [ F.crash ~at:3 () ]) ])

let test_queries () =
  let plan =
    F.make
      [
        (id 3, [ F.crash ~at:3 ~recover:5 () ]);
        (id 1, [ F.leave ~at:2 () ]);
        (id 2, [ F.send_omission ~first:2 ~last:4 ~prob:0.5 () ]);
      ]
  in
  check_true "not empty" (not (F.is_empty plan));
  check_true "empty is empty" (F.is_empty F.empty);
  Alcotest.(check (list node_id))
    "victims ascending"
    [ id 1; id 2; id 3 ]
    (F.victims plan);
  check_true "benign only without loss/dup" (F.benign_only plan);
  check_false "loss breaks benign_only"
    (F.benign_only (F.make ~loss:0.1 []));
  (* crash window [3, 5) *)
  check_true "up before crash" (F.status plan ~node:(id 3) ~round:2 = `Up);
  check_true "crashed at 3" (F.status plan ~node:(id 3) ~round:3 = `Crashed);
  check_true "crashed at 4" (F.status plan ~node:(id 3) ~round:4 = `Crashed);
  check_true "recovered at 5" (F.status plan ~node:(id 3) ~round:5 = `Up);
  check_true "left forever" (F.status plan ~node:(id 1) ~round:9 = `Left);
  check_true "unlisted node is up" (F.status plan ~node:(id 9) ~round:3 = `Up);
  (* permanent-down write-off *)
  check_true "leave without rejoin is permanent"
    (F.permanently_down plan ~node:(id 1) ~round:2);
  check_false "crash with recovery is not permanent"
    (F.permanently_down plan ~node:(id 3) ~round:3);
  (* omission windows *)
  check_true "omission active in window"
    (F.send_omission_prob plan ~node:(id 2) ~round:3 = 0.5);
  check_true "omission inactive after window"
    (F.send_omission_prob plan ~node:(id 2) ~round:5 = 0.);
  check_true "recv omission defaults to 0"
    (F.recv_omission_prob plan ~node:(id 2) ~round:3 = 0.)

(* ----- engine semantics, observed through consensus runs ----- *)

module C = Unknown_ba.Consensus.Make (Unknown_ba.Value.Int)
module Net = Network.Make (C)

let population n = Node_id.scatter ~seed:11L n

let consensus_net ?faults ?trace ?(seed = 5L) ~n () =
  let ids = population n in
  Net.create ?faults ?trace ~seed
    ~correct:(List.mapi (fun i nid -> (nid, i mod 2)) ids)
    ~byzantine:[] ()

let test_crash_stop_written_off () =
  let ids = population 7 in
  let victim = List.hd ids in
  let faults = F.make [ (victim, [ F.crash ~at:2 () ]) ] in
  let net = consensus_net ~faults ~n:7 () in
  (match Net.run ~max_rounds:100 net with
  | `All_halted -> ()
  | `Max_rounds_reached _ | `No_correct_nodes ->
      Alcotest.fail "survivors should decide despite one crash-stop");
  let r = Net.report net victim in
  check_true "victim marked down" (r.Net.down_since = Some 2);
  check_true "victim never halted" (r.Net.halted_at = None);
  List.iter
    (fun nid ->
      if not (Node_id.equal nid victim) then
        check_true "survivor halted"
          ((Net.report net nid).Net.halted_at <> None))
    ids

let test_crash_recover_decides () =
  let ids = population 7 in
  let victim = List.hd ids in
  let faults = F.make [ (victim, [ F.crash ~at:2 ~recover:4 () ]) ] in
  let net = consensus_net ~faults ~n:7 () in
  check_true "all halted after recovery"
    (Net.run ~max_rounds:200 net = `All_halted);
  let r = Net.report net victim in
  check_true "victim back up" (r.Net.down_since = None);
  check_true "victim decided (state intact)" (r.Net.halted_at <> None)

let test_send_omission_tolerated () =
  let ids = population 7 in
  let victim = List.hd ids in
  let faults =
    F.make [ (victim, [ F.send_omission ~first:2 ~prob:1.0 () ]) ]
  in
  let net = consensus_net ~faults ~n:7 () in
  check_true "one fully send-omitting node is tolerated (f = 2)"
    (Net.run ~max_rounds:200 net = `All_halted)

let test_total_loss_stalls () =
  (* Dropping every envelope from round 1 on cannot decide; the stalled
     payload names every correct node. *)
  let ids = population 4 in
  let faults = F.make ~loss:1.0 [] in
  let net = consensus_net ~faults ~n:4 () in
  match Net.run ~max_rounds:30 net with
  | `Max_rounds_reached stalled ->
      Alcotest.(check (list node_id))
        "everyone stalled, ascending" (Node_id.sorted ids) stalled
  | `All_halted | `No_correct_nodes ->
      Alcotest.fail "total loss must not reach agreement"

let test_fault_events_traced () =
  let ids = population 7 in
  let victim = List.hd ids in
  let faults =
    F.make ~loss:0.3
      [ (victim, [ F.crash ~at:2 ~recover:4 () ]) ]
  in
  let trace = Trace.create () in
  let net = consensus_net ~faults ~trace ~n:7 () in
  ignore (Net.run ~max_rounds:200 net);
  let faults_seen =
    List.filter (fun (e : Trace.event) -> e.kind = Trace.Fault) (Trace.events trace)
  in
  check_true "fault events recorded" (List.length faults_seen >= 2);
  check_true "crash event at round 2"
    (List.exists
       (fun (e : Trace.event) ->
         e.round = 2 && e.node = Some victim && e.kind = Trace.Fault)
       faults_seen)

(* ----- delay faults and the runtime-facing queries (PR 8) ----- *)

let test_delay_queries () =
  let p =
    F.make
      [
        (id 2, [ F.delay ~first:2 ~last:4 ~prob:0.5 ~rounds:2 () ]);
        (id 3, [ F.crash ~at:3 () ]);
      ]
  in
  check_true "delay active in window"
    (F.delay_spec p ~node:(id 2) ~round:3 = Some (0.5, 2));
  check_true "delay inactive after window"
    (F.delay_spec p ~node:(id 2) ~round:5 = None);
  check_true "delay inactive for other nodes"
    (F.delay_spec p ~node:(id 3) ~round:3 = None);
  check_false "plain crash plan has no recovery" (F.has_recovery p);
  check_true "crash-recover detected"
    (F.has_recovery (F.make [ (id 1, [ F.crash ~at:2 ~recover:4 () ]) ]));
  check_true "crashes lists unrecovered crash and leave rounds"
    (F.crashes
       (F.make [ (id 1, [ F.crash ~at:2 () ]); (id 2, [ F.leave ~at:3 () ]) ])
    = [ (id 1, 2); (id 2, 3) ]);
  check_true "recovered crash is not a crash"
    (F.crashes (F.make [ (id 1, [ F.crash ~at:2 ~recover:4 () ]) ]) = [])

let test_delay_drops_in_sim () =
  (* A delayed envelope misses its delivery round: the synchronous
     engine has no late slot, so the receive edge drops it with a fault
     trace event. Total delay on every node behaves like total loss. *)
  let ids = population 4 in
  let faults =
    F.make
      (List.map
         (fun nid -> (nid, [ F.delay ~first:1 ~prob:1.0 ~rounds:1 () ]))
         ids)
  in
  let trace = Trace.create () in
  let net = consensus_net ~faults ~trace ~n:4 () in
  (match Net.run ~max_rounds:10 net with
  | `Max_rounds_reached _ -> ()
  | `All_halted | `No_correct_nodes ->
      Alcotest.fail "total delay must stall consensus");
  check_true "delay fault events traced"
    (List.exists
       (fun (e : Trace.event) ->
         e.kind = Trace.Fault && contains e.what "fault: delay")
       (Trace.events trace))

(* ----- the --faults spec DSL ----- *)

let test_parse_spec () =
  let ids = population 5 in
  (match F.parse_spec ~ids "crash:1@3,delay:2@1..4=0.5x1,loss=0.05" with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok plan ->
      let sorted = Node_id.sorted ids in
      let v1 = List.nth sorted 1 and v2 = List.nth sorted 2 in
      check_false "plan not empty" (F.is_empty plan);
      check_true "crash clause lands on index 1"
        (F.status plan ~node:v1 ~round:3 = `Crashed);
      check_true "delay clause lands on index 2"
        (F.delay_spec plan ~node:v2 ~round:2 = Some (0.5, 1));
      check_true "delay window closes"
        (F.delay_spec plan ~node:v2 ~round:5 = None);
      check_true "crashes query sees the crash" (F.crashes plan = [ (v1, 3) ]));
  (match F.parse_spec ~ids "send-omit:0@2..3=0.5,recv-omit:4@1..=1.0,dup=0.1" with
  | Error e -> Alcotest.failf "omission spec rejected: %s" e
  | Ok plan ->
      let sorted = Node_id.sorted ids in
      check_true "send-omit window"
        (F.send_omission_prob plan ~node:(List.nth sorted 0) ~round:2 = 0.5);
      check_true "send-omit closes"
        (F.send_omission_prob plan ~node:(List.nth sorted 0) ~round:4 = 0.);
      check_true "open-ended recv-omit"
        (F.recv_omission_prob plan ~node:(List.nth sorted 4) ~round:9 = 1.0));
  let bad s =
    match F.parse_spec ~ids s with Error _ -> true | Ok _ -> false
  in
  check_true "empty spec rejected" (bad "");
  check_true "unknown clause rejected" (bad "explode:1@2");
  check_true "out-of-range index rejected" (bad "crash:9@2");
  check_true "prob > 1 rejected" (bad "loss=1.5");
  check_true "inverted window rejected" (bad "recv-omit:1@4..2=0.5");
  check_true "crash round 0 rejected" (bad "crash:1@0");
  check_true "garbage rejected" (bad "crash:one@two")

(* ----- the zero-cost guarantee ----- *)

let jsonl_of_run ?faults () =
  let trace = Trace.create () in
  let net = consensus_net ?faults ~trace ~n:7 () in
  ignore (Net.run ~max_rounds:200 net);
  Trace.to_jsonl trace

let test_empty_plan_is_no_plan () =
  let without = jsonl_of_run () in
  let empty = jsonl_of_run ~faults:F.empty () in
  Alcotest.(check string)
    "empty plan leaves the trace byte-identical" without empty

let suite =
  ( "faults",
    [
      quick "plan validation rejects bad input" test_validation;
      quick "plan queries" test_queries;
      quick "crash-stop victim is written off" test_crash_stop_written_off;
      quick "crash-recover keeps state and decides" test_crash_recover_decides;
      quick "one send-omitting node is tolerated" test_send_omission_tolerated;
      quick "total loss stalls with full stalled payload" test_total_loss_stalls;
      quick "injected faults are trace events" test_fault_events_traced;
      quick "delay queries and recovery/crash listings" test_delay_queries;
      quick "delayed envelopes drop at the receive edge" test_delay_drops_in_sim;
      quick "--faults spec DSL parses and validates" test_parse_spec;
      quick "empty plan is byte-identical to no plan" test_empty_plan_is_no_plan;
    ] )
