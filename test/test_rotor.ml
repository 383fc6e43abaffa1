open Ubpa_sim
open Ubpa_scenarios
open Helpers
module R = Scenarios.Rotor_int

let test_all_correct_terminates () =
  let s = R.run ~n_correct:5 () in
  check_true "terminated" s.R.all_terminated;
  check_true "good round" s.R.good_round_exists

let test_termination_bound () =
  (* Theorem rc: O(n) rounds. With the 2 init rounds the bound here is
     n + 3 for all-correct runs (each node is selected once, then repeat). *)
  let n = 7 in
  let s = R.run ~n_correct:n () in
  List.iter
    (fun r -> check_true "O(n) rounds" (r <= n + 3))
    s.R.termination_rounds

let test_silent_byz () =
  let f = 2 in
  let s =
    R.run ~byz:(List.init f (fun _ -> Strategy.silent)) ~n_correct:5 ()
  in
  check_true "terminated" s.R.all_terminated;
  check_true "good round despite silent byz" s.R.good_round_exists

let test_staggered_announcer () =
  (* Byzantine nodes announce to only part of the network, percolating into
     candidate sets over several rounds. *)
  let f = 3 in
  let byz =
    List.init f (fun i ->
        R.Attacks.staggered_announcer
          ~fraction:(0.35 +. (0.15 *. float_of_int i)))
  in
  let s = R.run ~byz ~n_correct:10 () in
  check_true "terminated" s.R.all_terminated;
  check_true "good round under staggered announcers" s.R.good_round_exists

let test_ghost_candidates_never_selected () =
  let ghosts = List.map Ubpa_util.Node_id.of_int [ 900001; 900002 ] in
  let f = 2 in
  let byz = List.init f (fun _ -> R.Attacks.ghost_candidate_pusher ghosts) in
  let s = R.run ~byz ~n_correct:7 () in
  check_true "terminated" s.R.all_terminated;
  List.iter
    (fun (_, (o : R.P.output)) ->
      List.iter
        (fun (_, coord) ->
          check_false "ghost never selected"
            (List.exists (Ubpa_util.Node_id.equal coord) ghosts))
        o.R.P.selections)
    s.R.outputs

let test_two_faced_coordinator () =
  (* A byzantine coordinator can hand out different opinions, but a good
     round with a *correct* coordinator still happens. *)
  let s =
    R.run ~byz:[ R.Attacks.two_faced_coordinator 111 222 ] ~n_correct:4 ()
  in
  check_true "terminated" s.R.all_terminated;
  check_true "correct good round exists" s.R.good_round_exists

let test_selections_cover_correct_nodes () =
  (* With everyone correct, every node's identifier gets a turn before
     termination. *)
  let n = 5 in
  let s = R.run ~n_correct:n () in
  List.iter
    (fun (_, (o : R.P.output)) ->
      check_int "n selections" n (List.length o.R.P.selections))
    s.R.outputs

let test_opinions_accepted_from_good_coordinator () =
  let s = R.run ~n_correct:4 () in
  (* every node accepted at least one opinion (there are >= 4 coordinator
     turns and all are correct) *)
  List.iter
    (fun (_, (o : R.P.output)) ->
      check_true "accepted opinions" (List.length o.R.P.accepted_opinions > 0))
    s.R.outputs

let test_termination_skew () =
  (* Correct nodes terminate within one round of each other: candidate sets
     are consistent by the relay property. *)
  let s =
    R.run
      ~byz:[ R.Attacks.staggered_announcer ~fraction:0.5 ]
      ~n_correct:7 ()
  in
  match s.R.termination_rounds with
  | [] -> Alcotest.fail "no terminations"
  | l ->
      let lo = List.fold_left min max_int l in
      let hi = List.fold_left max min_int l in
      check_true "skew <= 1" (hi - lo <= 1)

let test_shift_attack_no_early_break () =
  (* Regression for a subtlety in Algorithm 2: C_v is sorted by identifier,
     so a candidate with a *small* id inserted late shifts the positions and
     C_v[r mod |C_v|] re-hits an already-selected coordinator before the
     index ever wrapped. Two colluders with the smallest identifiers — one
     announcing instantly, one percolating one round later — would then
     terminate the rotor after selecting only Byzantine coordinators. The
     implementation follows the proof of Lemma rc-gdrnd and breaks only
     once r >= |C_v|, so a good round must still happen. *)
  let open Ubpa_util in
  let module R = Scenarios.Rotor_int in
  let correct_ids = List.map Node_id.of_int [ 100; 200; 300; 400; 500 ] in
  let early = Node_id.of_int 2 in
  (* announces to everyone *)
  let late = Node_id.of_int 1 in
  (* announces to a subset; enters C_v one round later, shifting it *)
  let full_announcer =
    Strategy.v ~name:"full" (fun _ _ view ->
        if view.Strategy.round = 1 then
          [ (Ubpa_sim.Envelope.Broadcast, R.P.Init) ]
        else [])
  in
  let staggered = R.Attacks.staggered_announcer ~fraction:0.45 in
  let correct = List.mapi (fun i id -> (id, i)) correct_ids in
  let net =
    R.Net.create
      ~correct
      ~byzantine:[ (early, full_announcer); (late, staggered) ]
      ()
  in
  let _ = R.Net.run ~max_rounds:100 net in
  let outputs = R.Net.outputs net in
  check_int "all terminated" 5 (List.length outputs);
  (* a good round: some rotor index where every correct node selected the
     same correct coordinator *)
  let good =
    match outputs with
    | [] -> false
    | (_, (first : R.P.output)) :: _ ->
        List.exists
          (fun (idx, _) ->
            match
              List.map
                (fun (_, (o : R.P.output)) -> List.assoc_opt idx o.R.P.selections)
                outputs
            with
            | Some c :: rest ->
                List.for_all (fun c' -> c' = Some c) rest
                && List.exists (Node_id.equal c) correct_ids
            | _ -> false)
          first.R.P.selections
  in
  check_true "good round despite the shift attack" good

let test_larger_network () =
  let s = R.run ~byz:(List.init 6 (fun _ -> Strategy.silent)) ~n_correct:19 () in
  check_true "n=25 f=6 terminates with good round"
    (s.R.all_terminated && s.R.good_round_exists)

let suite =
  ( "rotor-coordinator",
    [
      quick "all-correct run terminates with a good round"
        test_all_correct_terminates;
      quick "termination within O(n) rounds" test_termination_bound;
      quick "silent byzantine nodes" test_silent_byz;
      quick "staggered announcers (worst-case drip)" test_staggered_announcer;
      quick "ghost candidates never enter selection"
        test_ghost_candidates_never_selected;
      quick "two-faced byzantine coordinator" test_two_faced_coordinator;
      quick "every correct node gets a coordinator turn"
        test_selections_cover_correct_nodes;
      quick "opinions of good coordinators are accepted"
        test_opinions_accepted_from_good_coordinator;
      quick "termination skew at most one round" test_termination_skew;
      quick "sorted-insertion shift cannot break the rotor early"
        test_shift_attack_no_early_break;
      slow "larger network n=25" test_larger_network;
    ] )
