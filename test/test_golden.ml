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

(* The rotor-coordinator's hosts send their relay echoes in the order their
   tally first saw each candidate, which follows the order in which the
   host hands its buffered echoes over. Consensus and RB traces are pinned
   elsewhere; these three seeded runs pin the send order of the standalone
   rotor, binary consensus and parallel consensus under attack. *)
let trace_fingerprint run =
  let trace = Ubpa_sim.Trace.create () in
  run trace;
  fnv1a (Ubpa_sim.Trace.to_jsonl trace)

let population ~n_correct ~n_byz =
  Ubpa_harness.Harness.split_population ~seed:23L ~n_correct ~n_byz

let rotor_trace trace =
  let module R = Scenarios.Rotor_int in
  let correct, byz = population ~n_correct:10 ~n_byz:3 in
  let staggered i =
    R.Attacks.staggered_announcer ~fraction:(0.35 +. (0.15 *. float_of_int i))
  in
  R.Net.create ~seed:23L ~trace
    ~correct:(List.mapi (fun i id -> (id, i)) correct)
    ~byzantine:(List.mapi (fun i id -> (id, staggered i)) byz)
    ()
  |> R.Net.run ~max_rounds:500
  |> ignore

let binary_trace trace =
  let module B = Scenarios.Binary in
  let correct, byz = population ~n_correct:7 ~n_byz:2 in
  B.Net.create ~seed:23L ~trace
    ~correct:(List.mapi (fun i id -> (id, i mod 2 = 0)) correct)
    ~byzantine:
      (List.map (fun id -> (id, Ubpa_adversary.Bc_attacks.split_world)) byz)
    ()
  |> B.Net.run ~max_rounds:2000
  |> ignore

let parallel_trace trace =
  let module P = Scenarios.Parallel_int in
  let correct, byz = population ~n_correct:7 ~n_byz:2 in
  P.Net.create ~seed:23L ~trace
    ~correct:(List.mapi (fun i id -> (id, [ (1, i mod 2); (2, 5) ])) correct)
    ~byzantine:
      (List.map (fun id -> (id, P.Attacks.split_instance ~id:1 0 1)) byz)
    ()
  |> P.Net.run ~max_rounds:1000
  |> ignore

let test_rotor_host_traces () =
  List.iter
    (fun (name, run, expected) ->
      check_fp (name ^ ": JSONL fingerprint") expected (trace_fingerprint run))
    [
      ("rotor, staggered announcers", rotor_trace, 0x57bb0dfb68efd762L);
      ("binary consensus, split world", binary_trace, 0xad8a8445f5c39c54L);
      ( "parallel consensus, split instance",
        parallel_trace,
        0xfeb09f8dca025eaeL );
    ]

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
      quick "rotor hosts' seeded traces keep their send order"
        test_rotor_host_traces;
    ] )
