open Ubpa_sim
open Ubpa_scenarios
open Helpers
module B = Scenarios.Binary

let check_ok s =
  check_true "terminated" s.B.all_terminated;
  check_true "agreement" s.B.agreed;
  check_true "strong validity" s.B.valid

let test_unanimous () =
  let s = B.run ~n_correct:4 ~inputs:(fun _ -> true) () in
  check_ok s;
  List.iter (fun (_, v) -> check_true "output true" v) s.B.outputs

let test_unanimous_false () =
  let s = B.run ~n_correct:5 ~inputs:(fun _ -> false) () in
  check_ok s;
  List.iter (fun (_, v) -> check_false "output false" v) s.B.outputs

let test_split_all_correct () =
  let s = B.run ~n_correct:5 ~inputs:(fun i -> i mod 2 = 0) () in
  check_ok s

let test_split_world_attack () =
  let f = 2 in
  let s =
    B.run
      ~byz:(List.init f (fun _ -> Ubpa_adversary.Bc_attacks.split_world))
      ~n_correct:7
      ~inputs:(fun i -> i mod 2 = 0)
      ()
  in
  check_ok s

let test_stubborn_validity () =
  (* All correct nodes hold false; byzantine push true everywhere. Strong
     validity: the output must be false. *)
  let s =
    B.run
      ~byz:[ Ubpa_adversary.Bc_attacks.stubborn true; Strategy.silent ]
      ~n_correct:7
      ~inputs:(fun _ -> false)
      ()
  in
  check_ok s;
  List.iter (fun (_, v) -> check_false "output false" v) s.B.outputs

let test_silent_members () =
  let s =
    B.run
      ~byz:(List.init 2 (fun _ -> Ubpa_adversary.Bc_attacks.silent_member))
      ~n_correct:5
      ~inputs:(fun i -> i < 3)
      ()
  in
  check_ok s

let test_rounds_o_n () =
  (* Termination is rotor-driven: O(n) rounds (n rotor turns, 5 rounds per
     turn, + init + one zombie phase). *)
  let n = 7 in
  let s = B.run ~n_correct:n ~inputs:(fun i -> i mod 2 = 0) () in
  check_ok s;
  check_true
    (Printf.sprintf "rounds %d within 5(n+2)+2" s.B.rounds)
    (s.B.rounds <= (5 * (n + 2)) + 2)

let test_boundary () =
  List.iter
    (fun f ->
      let s =
        B.run
          ~byz:(List.init f (fun _ -> Ubpa_adversary.Bc_attacks.split_world))
          ~n_correct:((2 * f) + 1)
          ~inputs:(fun i -> i mod 2 = 0)
          ()
      in
      check_true
        (Printf.sprintf "agreement at f=%d" f)
        (s.B.agreed && s.B.valid && s.B.all_terminated))
    [ 1; 2; 3 ]

let test_skew_grace_period () =
  (* Decision rounds (first Deliver) may be ragged by up to one phase, but
     halts include the zombie phase, so active participation windows always
     overlap. *)
  let s =
    B.run
      ~byz:[ Ubpa_adversary.Bc_attacks.split_world ]
      ~n_correct:3
      ~inputs:(fun i -> i mod 2 = 0)
      ()
  in
  check_ok s;
  match s.B.decision_rounds with
  | [] -> Alcotest.fail "no decisions"
  | l ->
      let lo = List.fold_left min max_int l in
      let hi = List.fold_left max min_int l in
      check_true "decision skew at most one phase" (hi - lo <= 5)


(* Unit-level: exact round schedule, driven without the engine. *)
let test_schedule_unit () =
  let open Ubpa_util in
  let open Ubpa_sim in
  let module B = Unknown_ba.Binary_consensus in
  let a = Node_id.of_int 10
  and b = Node_id.of_int 20
  and c = Node_id.of_int 30
  and d = Node_id.of_int 40 in
  let everyone msg_of = List.map (fun s -> (s, msg_of s)) [ a; b; c; d ] in
  let st =
    B.init ~self:a ~round:0 ~index:(Interner.of_ids [ a; b; c; d ]) true
  in
  (* Round 1: init. *)
  let _, sends, _ = B.step ~self:a ~round:1 ~stim:[] st ~inbox:[] in
  Helpers.check_true "init" (sends = [ (Envelope.Broadcast, B.Init) ]);
  (* Round 2: echo the inits. *)
  let _, sends, _ =
    B.step ~self:a ~round:2 ~stim:[] st ~inbox:(everyone (fun _ -> B.Init))
  in
  Helpers.check_int "four candidate echoes" 4 (List.length sends);
  (* Round 3 (pos 1): broadcast the input. *)
  let _, sends, _ =
    B.step ~self:a ~round:3 ~stim:[] st
      ~inbox:(everyone (fun s -> B.Cand_echo s))
  in
  Helpers.check_true "input true"
    (List.mem (Envelope.Broadcast, B.Input true) sends);
  (* Round 4 (pos 2): 3/4 inputs true -> support true. *)
  let _, sends, _ =
    B.step ~self:a ~round:4 ~stim:[] st
      ~inbox:
        [ (a, B.Input true); (b, B.Input true); (c, B.Input true); (d, B.Input false) ]
  in
  Helpers.check_true "support true"
    (List.mem (Envelope.Broadcast, B.Support true) sends);
  (* Round 5 (pos 3): unanimous supports -> adopt. *)
  let _, _, _ =
    B.step ~self:a ~round:5 ~stim:[] st ~inbox:(everyone (fun _ -> B.Support true))
  in
  Helpers.check_true "opinion adopted" (B.current_opinion st);
  Helpers.check_int "phase 1" 1 (B.phase st)

(* Genericity: the same machinery runs over float and string opinions. *)
module Cf = Unknown_ba.Consensus.Make (Unknown_ba.Value.Float)
module Cf_net = Ubpa_sim.Network.Make (Cf)
module Cs = Unknown_ba.Consensus.Make (Unknown_ba.Value.String)
module Cs_net = Ubpa_sim.Network.Make (Cs)

let test_float_consensus () =
  let ids = Scenarios.make_ids ~seed:95L 4 in
  let net =
    Cf_net.create
      ~correct:(List.mapi (fun i id -> (id, 3.14 +. float_of_int i)) ids)
      ~byzantine:[] ()
  in
  Helpers.check_true "halted" (Cf_net.run net = `All_halted);
  match Cf_net.outputs net with
  | (_, first) :: rest ->
      List.iter
        (fun (_, v) -> Alcotest.(check (float 1e-9)) "agree" first v)
        rest
  | [] -> Alcotest.fail "no outputs"

let test_string_consensus () =
  let ids = Scenarios.make_ids ~seed:96L 5 in
  let proposals = [ "red"; "green"; "blue"; "red"; "green" ] in
  let net =
    Cs_net.create
      ~correct:(List.map2 (fun id v -> (id, v)) ids proposals)
      ~byzantine:[] ()
  in
  Helpers.check_true "halted" (Cs_net.run net = `All_halted);
  match Cs_net.outputs net with
  | (_, first) :: rest ->
      Helpers.check_true "valid" (List.mem first proposals);
      List.iter (fun (_, v) -> Alcotest.(check string) "agree" first v) rest
  | [] -> Alcotest.fail "no outputs"

let suite =
  ( "binary-consensus",
    [
      quick "unanimous true" test_unanimous;
      quick "unanimous false" test_unanimous_false;
      quick "split inputs, all correct" test_split_all_correct;
      quick "split-world equivocation" test_split_world_attack;
      quick "stubborn byzantine cannot override strong validity"
        test_stubborn_validity;
      quick "silent members" test_silent_members;
      quick "O(n) rounds (rotor-driven)" test_rounds_o_n;
      quick "n = 3f+1 boundary" test_boundary;
      quick "termination skew covered by the grace phase"
        test_skew_grace_period;
      quick "unit: exact round schedule" test_schedule_unit;
      quick "genericity: float opinions" test_float_consensus;
      quick "genericity: string opinions" test_string_consensus;
    ] )
