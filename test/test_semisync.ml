open Helpers
open Ubpa_semisync

let test_async_disagreement () =
  (* First lemma of Section "Synchrony is Necessary": with unbounded cross
     delays the two partitions decide their own inputs. *)
  let v = Partition.asynchronous ~size_a:4 ~size_b:4 () in
  check_true "A decided" (v.Partition.outputs_a <> []);
  check_true "B decided" (v.Partition.outputs_b <> []);
  List.iter (fun x -> check_int "A decides 1" 1 x) v.Partition.outputs_a;
  List.iter (fun x -> check_int "B decides 0" 0 x) v.Partition.outputs_b;
  check_true "disagreement" v.Partition.disagreement;
  check_true "messages still in flight at decision"
    v.Partition.undelivered_at_decision

let test_async_asymmetric_sizes () =
  let v = Partition.asynchronous ~size_a:2 ~size_b:6 () in
  check_true "disagreement regardless of sizes" v.Partition.disagreement

let test_semisync_disagreement_with_bounded_delay () =
  (* Second lemma: all delays bounded by a finite delta, yet disagreement. *)
  let delta = 100.0 in
  let v = Partition.semi_synchronous ~size_a:3 ~size_b:3 ~delta () in
  check_true "disagreement" v.Partition.disagreement;
  check_true "every delay finite and bounded by delta"
    (v.Partition.max_delay <= delta);
  check_true "decisions happened before delta"
    (v.Partition.decision_time_a < delta
    && v.Partition.decision_time_b < delta)

let test_semisync_delta_too_small_rejected () =
  (* The construction requires delta > max(T_a, T_b). *)
  check_true "raises on tiny delta"
    (try
       ignore (Partition.semi_synchronous ~size_a:3 ~size_b:3 ~delta:2.0 ());
       false
     with Invalid_argument _ -> true)

let test_synchronous_control () =
  (* Control experiment: when the cross delay fits inside the round
     duration, the same protocol agrees — synchrony really is the missing
     ingredient. *)
  let open Ubpa_util in
  let module C = Unknown_ba.Consensus.Make (Unknown_ba.Value.Int) in
  let module Sim = Event_sim.Make (C) in
  let ids = Node_id.scatter ~seed:53L 6 in
  let in_a id =
    List.exists (Node_id.equal id) (List.filteri (fun i _ -> i < 3) ids)
  in
  let nodes = List.map (fun id -> (id, if in_a id then 1 else 0)) ids in
  let sim = Sim.create ~delay:(fun ~src:_ ~dst:_ ~at:_ -> 0.9) ~nodes () in
  Sim.run ~until:1000. sim;
  let outs = List.filter_map (fun (_, o) -> o) (Sim.outputs sim) in
  check_int "all decided" 6 (List.length outs);
  match outs with
  | v :: rest -> List.iter (fun v' -> check_int "agreement" v v') rest
  | [] -> Alcotest.fail "no outputs"

let test_event_sim_rejects_nonpositive_delay () =
  let open Ubpa_util in
  let module C = Unknown_ba.Consensus.Make (Unknown_ba.Value.Int) in
  let module Sim = Event_sim.Make (C) in
  let ids = Node_id.scatter ~seed:54L 2 in
  let nodes = List.map (fun id -> (id, 0)) ids in
  let sim = Sim.create ~delay:(fun ~src:_ ~dst:_ ~at:_ -> 0.) ~nodes () in
  check_true "raises"
    (try
       Sim.run ~until:10. sim;
       false
     with Invalid_argument _ -> true)

let test_max_delay_tracking () =
  let v = Partition.semi_synchronous ~size_a:3 ~size_b:3 ~delta:64.0 () in
  Alcotest.(check (float 1e-9)) "max delay equals delta" 64.0 v.Partition.max_delay


(* ----- Event_sim direct behaviour ----- *)

module Probe = struct
  open Ubpa_sim

  type input = unit
  type stimulus = Protocol.No_stimulus.t
  type message = Ping of int
  type output = (int * Ubpa_util.Node_id.t * int) list
  type state = { mutable log : (int * Ubpa_util.Node_id.t * int) list; mutable r : int }

  let name = "probe"
  let init ~self:_ ~round:_ ~index:_ () = { log = []; r = 0 }
  let pp_message ppf (Ping r) = Fmt.pf ppf "ping(%d)" r

  include Protocol.Structural (struct
    type t = message
  end)

  let step ~self:_ ~round ~stim:_ st ~inbox =
    st.r <- round;
    List.iter (fun (src, Ping k) -> st.log <- (round, src, k) :: st.log) inbox;
    if round >= 4 then (st, [], Protocol.Stop (List.rev st.log))
    else (st, [ (Envelope.Broadcast, Ping round) ], Protocol.Continue)
end

module Psim = Event_sim.Make (Probe)

let two_nodes () =
  let ids = Ubpa_util.Node_id.scatter ~seed:55L 2 in
  (List.nth ids 0, List.nth ids 1)

let test_event_sim_delivery_time () =
  let a, b = two_nodes () in
  (* Delay 0.5 < round duration 1.0: a ping sent at tick k arrives before
     tick k+1 and is consumed there — one-round latency, like the
     synchronous engine. *)
  let sim =
    Psim.create
      ~delay:(fun ~src:_ ~dst:_ ~at:_ -> 0.5)
      ~nodes:[ (a, ()); (b, ()) ]
      ()
  in
  Psim.run ~until:100. sim;
  check_true "halted" (Psim.all_halted sim);
  List.iter
    (fun (_, out) ->
      match out with
      | None -> Alcotest.fail "no output"
      | Some log ->
          check_true "log not empty" (log <> []);
          List.iter
            (fun (recv, _, sent) -> check_int "one-tick latency" (sent + 1) recv)
            log)
    (Psim.outputs sim)

let test_event_sim_slow_link_postpones () =
  let a, b = two_nodes () in
  (* Delay 2.5: pings skip a tick and arrive two ticks later. *)
  let sim =
    Psim.create
      ~delay:(fun ~src:_ ~dst:_ ~at:_ -> 2.5)
      ~nodes:[ (a, ()); (b, ()) ]
      ()
  in
  Psim.run ~until:100. sim;
  List.iter
    (fun (_, out) ->
      match out with
      | Some log ->
          List.iter
            (fun (recv, _, sent) -> check_int "three-tick latency" (sent + 3) recv)
            log
      | None -> Alcotest.fail "no output")
    (Psim.outputs sim)

let test_event_sim_decided_at () =
  let a, b = two_nodes () in
  let sim =
    Psim.create
      ~delay:(fun ~src:_ ~dst:_ ~at:_ -> 0.5)
      ~nodes:[ (a, ()); (b, ()) ]
      ()
  in
  Psim.run ~until:100. sim;
  Alcotest.(check (option (float 1e-9))) "decided at tick 4" (Some 4.)
    (Psim.decided_at sim a);
  Alcotest.(check (float 1e-9)) "max delay tracked" 0.5 (Psim.max_delay_assigned sim)

let test_event_sim_run_horizon () =
  let a, b = two_nodes () in
  let sim =
    Psim.create
      ~delay:(fun ~src:_ ~dst:_ ~at:_ -> 0.5)
      ~nodes:[ (a, ()); (b, ()) ]
      ()
  in
  Psim.run ~until:2.0 sim;
  check_false "not halted yet" (Psim.all_halted sim);
  check_true "clock bounded" (Psim.now sim <= 2.0)

let suite =
  ( "semisync-impossibility",
    [
      quick "asynchronous partitions disagree" test_async_disagreement;
      quick "asymmetric partition sizes" test_async_asymmetric_sizes;
      quick "semi-synchronous bounded-delay disagreement"
        test_semisync_disagreement_with_bounded_delay;
      quick "lemma precondition enforced" test_semisync_delta_too_small_rejected;
      quick "control: short delays restore agreement" test_synchronous_control;
      quick "event sim rejects non-positive delays"
        test_event_sim_rejects_nonpositive_delay;
      quick "max delay is tracked" test_max_delay_tracking;
      quick "event sim: sub-round delays give one-tick latency"
        test_event_sim_delivery_time;
      quick "event sim: slow links postpone delivery" test_event_sim_slow_link_postpones;
      quick "event sim: decision times and max delay" test_event_sim_decided_at;
      quick "event sim: run horizon respected" test_event_sim_run_horizon;
    ] )
