(* The sender index contract: engines register every participant before
   its first message arrives, protocols only look senders up, and a
   copied state shares the index but none of its sender sets. *)

open Ubpa_util
open Ubpa_sim
open Helpers
module Rb = Unknown_ba.Reliable_broadcast.Make (Unknown_ba.Value.String)
module Rb_net = Network.Make (Rb)
module C = Unknown_ba.Consensus.Make (Unknown_ba.Value.Int)

let id = Node_id.of_int

let test_unregistered_slot_raises () =
  let index = Interner.of_ids [ id 5; id 9 ] in
  check_int "registered" 1 (Interner.slot index (id 9));
  Alcotest.check_raises "unregistered id"
    (Invalid_argument "Interner.slot: #7 was never registered") (fun () ->
      ignore (Interner.slot index (id 7)));
  let st = Rb.init ~self:(id 5) ~round:1 ~index None in
  Alcotest.check_raises "a protocol never registers"
    (Invalid_argument "Interner.slot: #7 was never registered") (fun () ->
      ignore
        (Rb.step ~self:(id 5) ~round:1 ~stim:[] st
           ~inbox:[ (id 7, Rb.Present) ]))

(* Consecutive and power-of-two-strided ids land in one bucket run
   under identity hashing; every shape must round-trip, through growth. *)
let test_patterned_ids_roundtrip () =
  List.iter
    (fun stride ->
      let ids = List.init 1000 (fun i -> id (i * stride)) in
      let index = Interner.create ~hint:1 () in
      List.iter (fun x -> ignore (Interner.intern index x)) ids;
      List.iteri
        (fun i x ->
          check_int (Printf.sprintf "stride %d slot %d" stride i) i
            (Interner.slot index x);
          check_true "extern inverts slot"
            (Node_id.equal x (Interner.extern index i)))
        ids;
      check_false "a gap is unregistered"
        (Interner.mem index (id ((1000 * stride) + 1))))
    [ 1; 1024; 1 lsl 20 ]

(* Broadcasts [present] every round. *)
let present_every_round =
  Strategy.v ~name:"present" (fun _ _ _ ->
      [ (Envelope.Broadcast, Rb.Present) ])

let test_joiners_count_from_first_delivery () =
  let ids = Node_id.scatter ~seed:3L 6 in
  let initial = List.filteri (fun i _ -> i < 4) ids in
  let joiner = List.nth ids 4 and byz = List.nth ids 5 in
  let observer = List.hd initial in
  let net =
    Rb_net.create
      ~correct:
        (List.mapi (fun i x -> (x, if i = 0 then Some "m" else None)) initial)
      ~byzantine:[] ()
  in
  let n_v () = Rb.n_v (List.assoc observer (Rb_net.states net)) in
  Rb_net.step_round net;
  Rb_net.join_correct net joiner None;
  Rb_net.step_round net;
  check_int "round 2: the joiner has not been heard yet" 4 (n_v ());
  Rb_net.join_byzantine net byz present_every_round;
  Rb_net.step_round net;
  check_int "round 3: the correct joiner's first message arrived" 5 (n_v ());
  Rb_net.step_round net;
  check_int "round 4: the Byzantine joiner's first message arrived" 6 (n_v ());
  check_int "the joiner counts everyone" 6
    (Rb.n_v (List.assoc joiner (Rb_net.states net)))

let test_rb_copy_isolated () =
  let ids = List.map id [ 10; 20; 30; 40 ] in
  let index = Interner.of_ids ids in
  let self = List.hd ids in
  let st = Rb.init ~self ~round:1 ~index None in
  let step st ~round inbox =
    let st, _, _ = Rb.step ~self ~round ~stim:[] st ~inbox in
    st
  in
  let st = step st ~round:1 [] in
  let st =
    step st ~round:2
      (List.map (fun x -> (x, Rb.Present)) [ id 10; id 20 ])
  in
  let key = Rb.state_key st in
  let copy = Rb.copy_state st in
  let copy =
    step copy ~round:3
      (List.map
         (fun x -> (x, Rb.Echo ("m", id 30)))
         [ id 30; id 40 ])
  in
  check_int "the copy heard the new senders" 4 (Rb.n_v copy);
  check_int "the original did not" 2 (Rb.n_v st);
  Alcotest.(check string) "original key unchanged" key (Rb.state_key st)

let test_consensus_copy_isolated () =
  let ids = List.map id [ 10; 20; 30; 40; 50 ] in
  let index = Interner.of_ids ids in
  let self = List.hd ids in
  let step st ~round inbox =
    let st, _, _ = C.step ~self ~round ~stim:[] st ~inbox in
    st
  in
  let old = [ id 10; id 20; id 30 ] in
  let st = C.init ~self ~round:1 ~index 0 in
  let st = step st ~round:1 [] in
  let st = step st ~round:2 (List.map (fun x -> (x, C.Core.Init)) old) in
  let key = C.state_key st in
  let copy =
    step (C.copy_state st) ~round:3
      (List.map (fun x -> (x, C.Core.Init)) [ id 40; id 50 ])
  in
  check_int "the copy froze five members" 5 (C.member_count copy);
  Alcotest.(check string) "original key unchanged" key (C.state_key st);
  let st = step st ~round:3 [] in
  check_int "the original froze its own three" 3 (C.member_count st)

let suite =
  ( "sender-index",
    [
      quick "unregistered ids raise" test_unregistered_slot_raises;
      quick "patterned ids round-trip through growth"
        test_patterned_ids_roundtrip;
      quick "joiners count toward n_v from their first delivery"
        test_joiners_count_from_first_delivery;
      quick "RB copy_state keeps new senders to itself" test_rb_copy_isolated;
      quick "consensus copy_state keeps new members to itself"
        test_consensus_copy_isolated;
    ] )
