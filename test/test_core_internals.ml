(** White-box tests: drive the state-machine cores by hand-crafting
    inboxes, without the network engine. *)

open Ubpa_util
open Unknown_ba
open Helpers

let id = Node_id.of_int
let a = id 100
let b = id 200
let c = id 300
let d = id 400

(* The engine registers every sender; late joiners included. *)
let strangers = List.init 5 (fun i -> id (900 + i))
let index = Interner.of_ids ([ a; b; c; d ] @ strangers)

(* ----- Rotor_core ----- *)

let echoes_from senders candidate =
  List.map (fun s -> (s, candidate)) senders

let test_rotor_core_thresholds () =
  let r = Rotor_core.create ~index () in
  (* 1 echo out of n_v = 4: below n_v/3 -> neither relayed nor added. *)
  let res =
    Rotor_core.rotor_round r ~self:a ~n_v:4 ~echoes:(echoes_from [ b ] (id 7))
  in
  check_true "not relayed" (res.relay_echoes = []);
  check_true "not selected" (res.selected = None);
  (* 2 of 4 echoes: past n_v/3, below 2n_v/3 -> relayed, not added. *)
  let res =
    Rotor_core.rotor_round r ~self:a ~n_v:4
      ~echoes:(echoes_from [ b; c ] (id 7))
  in
  check_true "relayed" (res.relay_echoes = [ id 7 ]);
  check_true "still not in C" (Rotor_core.candidates r = []);
  (* 3 of 4: past 2n_v/3 -> added and immediately selectable. *)
  let res =
    Rotor_core.rotor_round r ~self:a ~n_v:4
      ~echoes:(echoes_from [ b; c; d ] (id 7))
  in
  check_true "added" (Rotor_core.candidates r = [ id 7 ]);
  check_true "selected" (res.selected = Some (id 7))

let test_rotor_core_duplicate_echo_senders () =
  let r = Rotor_core.create ~index () in
  (* The same sender echoing thrice counts once. *)
  let res =
    Rotor_core.rotor_round r ~self:a ~n_v:4
      ~echoes:[ (b, id 7); (b, id 7); (b, id 7) ]
  in
  check_true "one sender is not a quorum" (Rotor_core.candidates r = []);
  check_true "not relayed either" (res.relay_echoes = [])

let test_rotor_core_round_robin_and_wrap () =
  let r = Rotor_core.create ~index () in
  let all = echoes_from [ a; b; c; d ] in
  (* Round 0: all three candidates arrive at once. *)
  let res0 =
    Rotor_core.rotor_round r ~self:a ~n_v:4
      ~echoes:(all (id 10) @ all (id 20) @ all (id 30))
  in
  check_true "sorted C" (Rotor_core.candidates r = [ id 10; id 20; id 30 ]);
  check_true "select smallest first" (res0.selected = Some (id 10));
  let res1 = Rotor_core.rotor_round r ~self:a ~n_v:4 ~echoes:[] in
  check_true "then second" (res1.selected = Some (id 20));
  let res2 = Rotor_core.rotor_round r ~self:a ~n_v:4 ~echoes:[] in
  check_true "then third" (res2.selected = Some (id 30));
  let res3 = Rotor_core.rotor_round r ~self:a ~n_v:4 ~echoes:[] in
  check_true "wrap terminates" res3.finished

let test_rotor_core_shift_repeats_instead_of_breaking () =
  let r = Rotor_core.create ~index () in
  let all = echoes_from [ a; b; c; d ] in
  let res0 = Rotor_core.rotor_round r ~self:a ~n_v:4 ~echoes:(all (id 20)) in
  check_true "first selection" (res0.selected = Some (id 20));
  (* A smaller candidate arrives late and shifts C: position 1 now re-hits
     20. This must repeat the turn, not terminate (r=1 < |C|=2). *)
  let res1 = Rotor_core.rotor_round r ~self:a ~n_v:4 ~echoes:(all (id 5)) in
  check_false "no premature break" res1.finished;
  check_true "repeat of 20" (res1.selected = Some (id 20));
  (* r=2 wraps onto the never-selected newcomer 5: it still gets a turn. *)
  let res2 = Rotor_core.rotor_round r ~self:a ~n_v:4 ~echoes:[] in
  check_false "newcomer still gets its turn" res2.finished;
  check_true "newcomer selected" (res2.selected = Some (id 5));
  (* r=3 >= |C|=2 re-hits a selected coordinator: now the break fires. *)
  let res3 = Rotor_core.rotor_round r ~self:a ~n_v:4 ~echoes:[] in
  check_true "wrap break" res3.finished

let test_rotor_core_i_am_coordinator () =
  let r = Rotor_core.create ~index () in
  let all = echoes_from [ a; b; c; d ] in
  let res = Rotor_core.rotor_round r ~self:(id 10) ~n_v:4 ~echoes:(all (id 10)) in
  check_true "self selected" res.i_am_coordinator

(* ----- Consensus_core round schedule ----- *)

module C = Consensus_core.Make (Value.Int)

let members_inbox msg_of = List.map (fun s -> (s, msg_of s)) [ a; b; c; d ]

let test_consensus_core_schedule () =
  let core = C.create ~self:a ~index ~input:1 in
  (* Round 1: init broadcast. *)
  let sends, st = C.step core ~inbox:[] in
  check_true "round1 init" (sends = [ (Ubpa_sim.Envelope.Broadcast, C.Init) ]);
  check_true "running" (st = C.Running);
  (* Round 2: echo every init. *)
  let sends, _ = C.step core ~inbox:(members_inbox (fun _ -> C.Init)) in
  check_int "four echoes" 4 (List.length sends);
  (* Round 3: membership fixes; input broadcast. *)
  let sends, _ = C.step core ~inbox:(members_inbox (fun s -> C.Cand_echo s)) in
  check_int "n_v fixed at 4" 4 (C.n_v core);
  check_true "input broadcast"
    (List.mem (Ubpa_sim.Envelope.Broadcast, C.Input 1) sends);
  (* Round 4: 3 of 4 inputs say 1 -> prefer 1. *)
  let sends, _ =
    C.step core
      ~inbox:
        [ (a, C.Input 1); (b, C.Input 1); (c, C.Input 1); (d, C.Input 0) ]
  in
  check_true "prefer 1" (List.mem (Ubpa_sim.Envelope.Broadcast, C.Prefer 1) sends);
  (* Round 5: unanimous prefers -> strongprefer + opinion adopted. *)
  let sends, _ = C.step core ~inbox:(members_inbox (fun _ -> C.Prefer 1)) in
  check_true "strongprefer 1"
    (List.mem (Ubpa_sim.Envelope.Broadcast, C.Strongprefer 1) sends);
  check_int "opinion 1" 1 (C.opinion core);
  (* Round 6 (rotor): strongprefer stash arrives now. *)
  let _, st = C.step core ~inbox:(members_inbox (fun _ -> C.Strongprefer 1)) in
  check_true "still running" (st = C.Running);
  (* Round 7: resolve -> decided. *)
  let _, st = C.step core ~inbox:[] in
  check_true "decided 1" (st = C.Decided 1)

let test_consensus_core_discards_non_members () =
  let core = C.create ~self:a ~index ~input:1 in
  let _ = C.step core ~inbox:[] in
  let _ = C.step core ~inbox:(members_inbox (fun _ -> C.Init)) in
  let _ = C.step core ~inbox:(members_inbox (fun s -> C.Cand_echo s)) in
  (* Round 4: members vote 1; five strangers flood 0. Strangers must be
     discarded, so the node prefers 1. *)
  let strangers = List.map (fun s -> (s, C.Input 0)) strangers in
  let sends, _ =
    C.step core
      ~inbox:(members_inbox (fun _ -> C.Input 1) @ strangers)
  in
  check_true "prefer 1 despite stranger flood"
    (List.mem (Ubpa_sim.Envelope.Broadcast, C.Prefer 1) sends)

let test_consensus_core_substitution_for_silent_member () =
  let core = C.create ~self:a ~index ~input:1 in
  let _ = C.step core ~inbox:[] in
  let _ = C.step core ~inbox:(members_inbox (fun _ -> C.Init)) in
  let _ = C.step core ~inbox:(members_inbox (fun s -> C.Cand_echo s)) in
  (* Round 4: d is phase-silent (terminated). Three real inputs + d
     substituted with my own input -> 4 of 4 -> prefer. *)
  let sends, _ =
    C.step core ~inbox:[ (a, C.Input 1); (b, C.Input 1); (c, C.Input 1) ]
  in
  check_true "prefer 1 via substitution"
    (List.mem (Ubpa_sim.Envelope.Broadcast, C.Prefer 1) sends);
  (* Round 5: again d silent; my prefer is substituted for it. *)
  let sends, _ =
    C.step core ~inbox:[ (a, C.Prefer 1); (b, C.Prefer 1); (c, C.Prefer 1) ]
  in
  check_true "strongprefer 1 via substitution"
    (List.mem (Ubpa_sim.Envelope.Broadcast, C.Strongprefer 1) sends);
  (* Rotor round: stash 3 strongprefers (d silent). *)
  let _ = C.step core ~inbox:[ (a, C.Strongprefer 1); (b, C.Strongprefer 1); (c, C.Strongprefer 1) ] in
  (* Resolve: 3 + substituted = 4 >= 2n/3 -> decided. *)
  let _, st = C.step core ~inbox:[] in
  check_true "decided with a silent member" (st = C.Decided 1)

let test_consensus_core_no_substitution_for_active_member () =
  let core = C.create ~self:a ~index ~input:1 in
  let _ = C.step core ~inbox:[] in
  let _ = C.step core ~inbox:(members_inbox (fun _ -> C.Init)) in
  let _ = C.step core ~inbox:(members_inbox (fun s -> C.Cand_echo s)) in
  (* All four members sent inputs (so nobody is phase-silent), but split
     2-2: no 2n/3 quorum, node must send nothing at position 2. *)
  let sends, _ =
    C.step core
      ~inbox:
        [ (a, C.Input 1); (b, C.Input 1); (c, C.Input 0); (d, C.Input 0) ]
  in
  check_true "no prefer on a split" (sends = []);
  (* Position 3: only a and b sent prefer; c and d are active (sent inputs)
     so NO substitution happens for them: 2 of 4 < 2n/3 but >= n/3, so the
     opinion updates without a strongprefer. *)
  let sends, _ =
    C.step core ~inbox:[ (a, C.Prefer 1); (b, C.Prefer 1) ]
  in
  check_false "no strongprefer"
    (List.exists
       (fun (_, m) -> match m with C.Strongprefer _ -> true | _ -> false)
       sends);
  check_int "opinion updated to 1" 1 (C.opinion core)

(* ----- Parallel_consensus_core ----- *)

module Pc = Parallel_consensus_core.Make (Value.Int)

let pc_members_inbox msg_of = List.map (fun s -> (s, msg_of s)) [ a; b; c; d ]

let bootstrap core =
  let _ = Pc.step core ~inbox:[] in
  let _ = Pc.step core ~inbox:(pc_members_inbox (fun _ -> Pc.Init)) in
  let _ = Pc.step core ~inbox:(pc_members_inbox (fun s -> Pc.Cand_echo s)) in
  ()

let test_pc_core_own_instance_flow () =
  let core = Pc.create ~self:a ~index ~inputs:[ (1, 5) ] () in
  let _ = Pc.step core ~inbox:[] in
  let _ = Pc.step core ~inbox:(pc_members_inbox (fun _ -> Pc.Init)) in
  (* Round 3 = phase 1 position 1: broadcast the input pair. *)
  let sends, _ = Pc.step core ~inbox:(pc_members_inbox (fun s -> Pc.Cand_echo s)) in
  check_true "input broadcast"
    (List.mem (Ubpa_sim.Envelope.Broadcast, Pc.Inst (1, Pc.Input (Some 5))) sends);
  (* Position 2: everyone input 5 -> prefer Some 5. *)
  let sends, _ =
    Pc.step core ~inbox:(pc_members_inbox (fun _ -> Pc.Inst (1, Pc.Input (Some 5))))
  in
  check_true "prefer(5)"
    (List.mem (Ubpa_sim.Envelope.Broadcast, Pc.Inst (1, Pc.Prefer (Some 5))) sends);
  (* Position 3: unanimous prefer -> strongprefer. *)
  let sends, _ =
    Pc.step core
      ~inbox:(pc_members_inbox (fun _ -> Pc.Inst (1, Pc.Prefer (Some 5))))
  in
  check_true "strongprefer(5)"
    (List.mem
       (Ubpa_sim.Envelope.Broadcast, Pc.Inst (1, Pc.Strongprefer (Some 5)))
       sends);
  (* Position 4 (rotor) receives the strongprefer quorum. *)
  let _ =
    Pc.step core
      ~inbox:(pc_members_inbox (fun _ -> Pc.Inst (1, Pc.Strongprefer (Some 5))))
  in
  (* Position 5: resolve -> Done with the pair. *)
  let _, st = Pc.step core ~inbox:[] in
  check_true "done with (1,5)" (st = Pc.Done [ (1, 5) ])

let test_pc_core_ghost_instance_bot_suppression () =
  let core = Pc.create ~self:a ~index ~inputs:[] () in
  bootstrap core;
  (* Position 2 of phase 1: a ghost instance arrives via a single input.
     The node discovers it and — filling ⊥ for the three silent members —
     prefers ⊥. *)
  let sends, _ = Pc.step core ~inbox:[ (d, Pc.Inst (9, Pc.Input (Some 7))) ] in
  check_true "discovered" (Pc.instances core = [ 9 ]);
  check_true "prefer bottom"
    (List.mem (Ubpa_sim.Envelope.Broadcast, Pc.Inst (9, Pc.Prefer None)) sends);
  (* Position 3: every correct node (discovered simultaneously) prefers ⊥;
     strongprefer ⊥ follows. *)
  let sends, _ =
    Pc.step core ~inbox:(pc_members_inbox (fun _ -> Pc.Inst (9, Pc.Prefer None)))
  in
  check_true "strongprefer bottom"
    (List.mem
       (Ubpa_sim.Envelope.Broadcast, Pc.Inst (9, Pc.Strongprefer None))
       sends);
  let _ =
    Pc.step core
      ~inbox:(pc_members_inbox (fun _ -> Pc.Inst (9, Pc.Strongprefer None)))
  in
  let _, st = Pc.step core ~inbox:[] in
  check_true "terminated with no output" (st = Pc.Done []);
  check_true "instance decided bottom" (Pc.decided core = [ (9, None) ])

let test_pc_core_late_instance_ignored () =
  let core = Pc.create ~self:a ~index ~inputs:[] () in
  bootstrap core;
  (* Finish phase 1 with no instances. *)
  let _ = Pc.step core ~inbox:[] in
  let _ = Pc.step core ~inbox:[] in
  let _ = Pc.step core ~inbox:[] in
  let _, st = Pc.step core ~inbox:[ (d, Pc.Inst (5, Pc.Input (Some 3))) ] in
  (* Phase 1 position 5: discovery via Input is only legal at position 2,
     so nothing was created and the host finishes empty. *)
  check_true "no instance" (Pc.instances core = []);
  check_true "done empty" (st = Pc.Done [])

let test_pc_core_restrict_filters_senders () =
  let core =
    Pc.create
      ~restrict:(Node_id.Set.of_list [ a; b ])
      ~self:a ~index ~inputs:[ (1, 5) ] ()
  in
  let _ = Pc.step core ~inbox:[] in
  let _ = Pc.step core ~inbox:(pc_members_inbox (fun _ -> Pc.Init)) in
  let _ = Pc.step core ~inbox:(pc_members_inbox (fun s -> Pc.Cand_echo s)) in
  (* Only a and b count towards n_v — c and d were filtered. *)
  check_int "restricted membership" 2 (List.length (Pc.members core))

let test_pc_core_duplicate_input_ids_rejected () =
  check_true "raises"
    (try
       ignore (Pc.create ~self:a ~index ~inputs:[ (1, 5); (1, 6) ] ());
       false
     with Invalid_argument _ -> true)

let suite =
  ( "core-internals",
    [
      quick "rotor-core: n_v/3 and 2n_v/3 thresholds" test_rotor_core_thresholds;
      quick "rotor-core: duplicate echo senders collapse"
        test_rotor_core_duplicate_echo_senders;
      quick "rotor-core: round-robin then wrap" test_rotor_core_round_robin_and_wrap;
      quick "rotor-core: insertion shift repeats, never breaks early"
        test_rotor_core_shift_repeats_instead_of_breaking;
      quick "rotor-core: coordinator self-detection" test_rotor_core_i_am_coordinator;
      quick "consensus-core: exact 5-round phase schedule"
        test_consensus_core_schedule;
      quick "consensus-core: non-members are discarded"
        test_consensus_core_discards_non_members;
      quick "consensus-core: substitution for phase-silent members"
        test_consensus_core_substitution_for_silent_member;
      quick "consensus-core: no substitution for active members"
        test_consensus_core_no_substitution_for_active_member;
      quick "pc-core: own instance decides in one phase" test_pc_core_own_instance_flow;
      quick "pc-core: ghost instance converges to ⊥" test_pc_core_ghost_instance_bot_suppression;
      quick "pc-core: late discovery ignored" test_pc_core_late_instance_ignored;
      quick "pc-core: restriction filters senders" test_pc_core_restrict_filters_senders;
      quick "pc-core: duplicate instance ids rejected"
        test_pc_core_duplicate_input_ids_rejected;
    ] )
