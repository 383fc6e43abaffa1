(* Golden differential tests for the dense-index refactors.

   The fingerprints below were captured from the pre-refactor accumulators
   (List.mem_assoc dedup in total_order, List.mem relay scans in renaming,
   Set/Map tallies in the cores) over seeded churn sweeps; the refactored
   code must reproduce them bit-for-bit. The serialization covers every
   observable of the runs — per-node chains with origins and events,
   frontier lags, renaming name tables — so any behavioural drift in the
   replacement structures shows up as a fingerprint mismatch, not a flaky
   downstream failure. *)

open Ubpa_util
open Ubpa_scenarios
open Helpers
module T = Scenarios.Total_order_str
module R = Scenarios.Renaming_run

let total_order_fingerprint ~seed =
  let s =
    T.run ~seed:(Int64.of_int seed)
      ~churn:{ T.join_at = [ (4, 1) ]; leave_at = [ (7, 1) ] }
      ~n_genesis:5 ~rounds:10 ~events_per_round:2 ()
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "rounds=%d msgs=%d submitted=%d prefix=%b|" s.T.rounds
       s.T.delivered_msgs s.T.events_submitted s.T.prefix_consistent);
  List.iter
    (fun (id, (o : T.P.chain_output)) ->
      Buffer.add_string buf
        (Printf.sprintf "node=%d lr=%d fr=%d:" (Node_id.to_int id)
           o.T.P.logical_round o.T.P.frontier);
      List.iter
        (fun (e : T.P.chain_entry) ->
          Buffer.add_string buf
            (Printf.sprintf "(%d,%d,%s)" e.T.P.group
               (Node_id.to_int e.T.P.origin)
               e.T.P.event))
        o.T.P.chain;
      Buffer.add_char buf '|')
    s.T.chains;
  List.iter
    (fun l -> Buffer.add_string buf (Printf.sprintf "%d," l))
    s.T.frontier_lags;
  fnv1a (Buffer.contents buf)

let renaming_fingerprint ~seed =
  let s = R.run ~seed:(Int64.of_int seed) ~n_correct:6 () in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "n=%d f=%d rounds=%d msgs=%d cons=%b dense=%b term=%b|"
       s.R.n s.R.f s.R.rounds s.R.delivered_msgs s.R.consistent
       s.R.names_are_dense s.R.all_terminated);
  List.iter
    (fun (id, (o : Unknown_ba.Renaming.output)) ->
      Buffer.add_string buf
        (Printf.sprintf "node=%d my=%d:" (Node_id.to_int id) o.my_name);
      List.iter
        (fun (nid, rank) ->
          Buffer.add_string buf
            (Printf.sprintf "(%d,%d)" (Node_id.to_int nid) rank))
        o.names;
      Buffer.add_char buf '|')
    s.R.outputs;
  fnv1a (Buffer.contents buf)

let test_total_order_goldens () =
  List.iter
    (fun (seed, expected) ->
      check_fp
        (Printf.sprintf "total-order seed=%d" seed)
        expected
        (total_order_fingerprint ~seed))
    [
      (11, 0x39cd0a9b83cfc836L);
      (42, 0xdb3c33e523f14a1eL);
      (1009, 0xfd481038063443f2L);
    ]

let test_renaming_goldens () =
  List.iter
    (fun (seed, expected) ->
      check_fp
        (Printf.sprintf "renaming seed=%d" seed)
        expected
        (renaming_fingerprint ~seed))
    [
      (11, 0x8cd54ed086897df5L);
      (42, 0x1087126fdd54ba83L);
      (1009, 0xdf634c3ce11e67afL);
    ]

let suite =
  ( "golden-fingerprints",
    [
      quick "total-order churn sweep matches pre-refactor goldens"
        test_total_order_goldens;
      quick "renaming sweep matches pre-refactor goldens"
        test_renaming_goldens;
    ] )
