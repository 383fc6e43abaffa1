(** Exhaustive checker (lib/check): verdicts on calibrated cells,
    counterexample replayability, --jobs and symmetry identity, the
    committed-baseline golden, and the chaos-vs-checker differential
    (one scripted fault plan through both systems must give byte-identical
    terminal states, stalled sets, and monitor verdicts). *)

open Ubpa_util
open Helpers
module M = Ubpa_monitor
module F = Ubpa_faults
module Ck_rb = Ubpa_check.Checker.Make (Ubpa_check.Models.Rb)
module Ck_cons = Ubpa_check.Checker.Make (Ubpa_check.Models.Consensus)

let verdict = function
  | Ubpa_check.Checker.Verified -> "verified"
  | Violated -> "violation"
  | Out_of_budget -> "out-of-budget"

(* ----- verdicts on the calibrated envelope cells ----- *)

let test_rb_verified () =
  let r = Ck_rb.check ~n:4 ~f:1 ~max_rounds:4 () in
  Alcotest.(check string) "n=4 f=1 proved" "verified" (verdict r.verdict);
  check_true "nothing to replay" (r.cex = None);
  check_true "symmetry pruned some orbits" (r.stats.sym_skips > 0);
  check_int "explored to the horizon" 4 r.stats.depth

let test_rb_benign_verified () =
  let r =
    Ck_rb.check ~n:4 ~f:0 ~crash_budget:1 ~omit_budget:1 ~max_rounds:4 ()
  in
  Alcotest.(check string)
    "one crash + one omission stay safe" "verified" (verdict r.verdict)

let test_consensus_violation () =
  (* n = 3, f = 1 sits on the 3f >= n boundary: agreement must break. *)
  let r = Ck_cons.check ~n:3 ~f:1 ~max_rounds:8 () in
  Alcotest.(check string) "boundary breaks" "violation" (verdict r.verdict);
  match r.cex with
  | None -> Alcotest.fail "violation without a counterexample"
  | Some cx ->
      Alcotest.(check string) "agreement is the broken property" "agreement"
        cx.cx_property;
      check_true "minimized script still reproduces it" cx.cx_replayed

(* ----- counterexample JSONL: round-trip and replay ----- *)

let test_rb_cex_roundtrip () =
  let r = Ck_rb.check ~n:3 ~f:1 ~max_rounds:5 () in
  Alcotest.(check string) "f > n/3 breaks RB" "violation" (verdict r.verdict);
  match r.cex with
  | None -> Alcotest.fail "violation without a counterexample"
  | Some cx ->
      check_true "replayed" cx.cx_replayed;
      check_true "some byz messages survive minimization" (cx.cx_byz_msgs > 0);
      (* the trace is standard JSONL: parse -> re-record -> serialize is
         the identity *)
      let events =
        match Ubpa_sim.Trace.of_jsonl cx.cx_jsonl with
        | Ok evs -> evs
        | Error e -> Alcotest.fail ("counterexample JSONL unparseable: " ^ e)
      in
      let tr = Ubpa_sim.Trace.create () in
      List.iter
        (fun (e : Ubpa_sim.Trace.event) ->
          Ubpa_sim.Trace.record tr ~round:e.round ?node:e.node ~kind:e.kind
            e.what)
        events;
      Alcotest.(check string)
        "trace JSONL round-trips byte-for-byte" cx.cx_jsonl
        (Ubpa_sim.Trace.to_jsonl tr);
      check_true "trace carries the violation event"
        (List.exists
           (fun (e : Ubpa_sim.Trace.event) ->
             e.kind = Ubpa_sim.Trace.Engine
             && String.length e.what >= 9
             && String.sub e.what 0 9 = "violation")
           events)

(* ----- determinism: --jobs and symmetry must not change the answer ----- *)

let test_jobs_identical () =
  let run jobs = Ck_rb.check ~jobs ~n:3 ~f:1 ~max_rounds:5 () in
  let a = run 1 and b = run 2 in
  check_true "full result identical at jobs 1 vs 2 (incl. cex JSONL)" (a = b)

(* Consensus too: its expansion memoises payload keys per group, and
   that memo must never leak between Pool workers. *)
let test_jobs_identical_consensus () =
  let run jobs = Ck_cons.check ~jobs ~n:4 ~f:1 ~max_rounds:3 () in
  let a = run 1 and b = run 2 in
  check_true "consensus result identical at jobs 1 vs 2" (a = b)

let test_symmetry_sound () =
  let on = Ck_rb.check ~symmetry:true ~n:4 ~f:1 ~max_rounds:3 () in
  let off = Ck_rb.check ~symmetry:false ~n:4 ~f:1 ~max_rounds:3 () in
  Alcotest.(check string) "same verdict" (verdict off.verdict)
    (verdict on.verdict);
  check_true "reduction actually pruned" (on.stats.sym_skips > 0);
  check_int "the full search prunes nothing" 0 off.stats.sym_skips;
  check_true "fewer distinct configs under the reduction"
    (on.stats.distinct < off.stats.distinct)

(* ----- canonical state keys ignore insertion order ----- *)

(* Two copies of a machine fed the same inbox multisets, one in reverse
   sender order, intern senders and fill their buffers in opposite orders;
   the canonical key must not see the difference. *)
let drive ~init ~step ~key inboxes =
  let run rev =
    List.fold_left
      (fun (st, round) inbox ->
        let st, _, _ =
          step ~round st ~inbox:(if rev then List.rev inbox else inbox)
        in
        (st, round + 1))
      (init (), 1) inboxes
    |> fst |> key
  in
  (run false, run true)

let test_rb_key_order_free () =
  let module P = Unknown_ba.Reliable_broadcast.Make (Unknown_ba.Value.String) in
  let ids = List.map Node_id.of_int [ 11; 22; 33 ] in
  let all m = List.map (fun id -> (id, m)) ids in
  let c1 = List.nth ids 1 and c2 = List.nth ids 2 in
  let echo_a = all (P.inject (P.Echo ("A", c1))) in
  let echoes =
    echo_a @ all (P.inject (P.Echo ("B", c2)))
    |> List.stable_sort (fun (a, _) (b, _) -> Node_id.compare a b)
  in
  let first =
    [
      (List.nth ids 0, P.inject P.Present);
      (c1, P.inject (P.Payload "A"));
      (c2, P.inject (P.Payload "B"));
    ]
  in
  let drive =
    drive
      ~init:(fun () ->
        P.init ~self:(List.hd ids) ~round:1 ~index:(Interner.of_ids ids) None)
      ~step:(fun ~round st ~inbox ->
        P.step ~self:(List.hd ids) ~round ~stim:[] st ~inbox)
      ~key:P.state_key
  in
  (* both pairs are accepted in round 3, in the tally's order *)
  let fwd, rev = drive [ first; echoes; echoes ] in
  Alcotest.(check string) "heard_from and accepted are sets" fwd rev;
  let fewer, _ = drive [ first; echoes; echo_a ] in
  check_false "a missing acceptance changes the key" (String.equal fwd fewer)

let test_consensus_key_order_free () =
  let module C = Unknown_ba.Consensus.Make (Unknown_ba.Value.Int) in
  let ids = List.map Node_id.of_int [ 11; 22; 33; 44 ] in
  let all m = List.map (fun id -> (id, m)) ids in
  let self = List.hd ids in
  let echoes =
    List.concat_map
      (fun src -> List.map (fun p -> (src, C.Core.Cand_echo p)) ids)
      ids
  in
  let rounds =
    [
      all C.Core.Init;
      echoes;
      (* position 1 buffers these candidate echoes *)
      echoes;
      all (C.Core.Input 0);
      all (C.Core.Prefer 0);
      (* position 4 stashes the strongprefers *)
      List.mapi (fun i id -> (id, C.Core.Strongprefer (i mod 2))) ids;
    ]
  in
  let key = C.state_key in
  let step ~round st ~inbox = C.step ~self ~round ~stim:[] st ~inbox in
  let init () = C.init ~self ~round:1 ~index:(Interner.of_ids ids) 1 in
  List.iteri
    (fun i _ ->
      let prefix = List.filteri (fun j _ -> j <= i) rounds in
      let fwd, rev = drive ~init ~step ~key prefix in
      Alcotest.(check string)
        (Printf.sprintf
           "members, cand_buffer and strong_stash are sets (round %d)" (i + 1))
        fwd rev)
    rounds;
  let fwd, _ = drive ~init ~step ~key rounds in
  let other, _ =
    drive ~init ~step ~key
      (List.filteri (fun j _ -> j < 5) rounds
      @ [ all (C.Core.Strongprefer 1) ])
  in
  check_false "a different stash changes the key" (String.equal fwd other)

(* ----- golden: the committed boundary counterexample ----- *)

(* `dune runtest` runs in the test directory, `dune exec` wherever the
   caller stands — accept both. *)
let baseline_cex =
  if Sys.file_exists "../bench/baseline/CEX_MC1.jsonl" then
    "../bench/baseline/CEX_MC1.jsonl"
  else "bench/baseline/CEX_MC1.jsonl"

let test_committed_cex_golden () =
  let ic = open_in_bin baseline_cex in
  let len = in_channel_length ic in
  let committed = really_input_string ic len in
  close_in ic;
  let r = Ck_rb.check ~n:3 ~f:1 ~max_rounds:5 () in
  match r.cex with
  | None -> Alcotest.fail "rb n=3 f=1 no longer yields a counterexample"
  | Some cx ->
      Alcotest.(check string)
        "fresh minimal counterexample matches bench/baseline/CEX_MC1.jsonl"
        committed cx.cx_jsonl;
      check_true "and it replays" cx.cx_replayed

(* ----- differential: one fault plan through engine and checker ----- *)

(* The same crash schedule (victim down from round 3, no recovery) runs
   through the real simulator (Network + Ubpa_faults + Harness) and the
   checker's scripted replay. Terminal state keys, outputs, halting
   rounds, finished/stalled shape, and online monitor verdicts must agree
   exactly — this is what licenses the checker's verdicts as statements
   about the engine's semantics. *)

module P = Ubpa_check.Models.Consensus.P
module H = Ubpa_harness.Harness.Make (P)

let crash_round = 3

let monitor ~victim =
  M.create
    ~excused:(Node_id.Set.of_list [ victim ])
    [
      M.agreement ~equal:Int.equal ~pp:Fmt.int ();
      M.validity ~ok:(fun _ v -> v = 0 || v = 1) ();
      M.no_send_after_halt ();
    ]

let engine_side ~max_rounds ~correct ~victim =
  let mon = monitor ~victim in
  let plan = F.make [ (victim, [ F.crash ~at:crash_round () ]) ] in
  let o =
    H.execute ~seed:7L ~delivery:Ubpa_sim.Delivery.Naive ~faults:plan
      ~monitor:mon ~max_rounds ~correct ~byzantine:[] ()
  in
  let states =
    H.Net.states o.H.net
    |> List.map (fun (id, st) -> (id, Ubpa_check.Models.Consensus.state_key st))
    |> List.sort compare
  in
  (o, states, M.first_violation mon)

let checker_side ~max_rounds ~correct ~victim =
  let mon = monitor ~victim in
  let rec script r =
    if r > crash_round then []
    else
      (if r = crash_round then
         { Ck_cons.silent_action with crash = Some victim }
       else Ck_cons.silent_action)
      :: script (r + 1)
  in
  let o =
    Ck_cons.replay ~monitor:mon ~max_rounds ~correct ~byzantine:[]
      ~actions:(script 1) ()
  in
  (o, List.sort compare o.state_keys, M.first_violation mon)

let violation_key = Option.map (fun (v : M.violation) -> (v.invariant, v.round, v.detail))

let test_differential_terminating () =
  let correct_ids, _ = Ck_cons.population ~seed:7L ~n:4 ~f:0 in
  let victim = List.nth correct_ids 2 in
  let correct = List.mapi (fun i id -> (id, i mod 2)) correct_ids in
  let eo, estates, everdict = engine_side ~max_rounds:30 ~correct ~victim in
  let co, cstates, cverdict = checker_side ~max_rounds:30 ~correct ~victim in
  check_true "engine run halted" (eo.H.finished = `All_halted);
  check_true "checker replay halted" (co.Ck_cons.finished = `All_halted);
  check_int "same round count" eo.H.rounds co.Ck_cons.rounds;
  Alcotest.(check (list (pair node_id string)))
    "byte-identical terminal states" estates cstates;
  check_true "same decisions"
    (List.sort compare eo.H.outputs = List.sort compare co.Ck_cons.outputs);
  check_true "same monitor verdict (none)"
    (violation_key everdict = violation_key cverdict && everdict = None)

let test_differential_truncated () =
  (* Cut the run before termination: Max_rounds_reached must report the
     same stalled set from both systems — the crash victim included, and
     written off identically by the halt test (the checker's [all_done]
     mirrors [Network.all_halted]). *)
  let correct_ids, _ = Ck_cons.population ~seed:7L ~n:4 ~f:0 in
  let victim = List.nth correct_ids 2 in
  let correct = List.mapi (fun i id -> (id, i mod 2)) correct_ids in
  let eo, estates, _ = engine_side ~max_rounds:5 ~correct ~victim in
  let co, cstates, _ = checker_side ~max_rounds:5 ~correct ~victim in
  (match (eo.H.finished, co.Ck_cons.finished) with
  | `Max_rounds_reached es, `Max_rounds_reached cs ->
      Alcotest.(check (list node_id)) "identical stalled sets" es cs;
      check_true "the crash victim is reported stalled"
        (List.exists (Node_id.equal victim) es)
  | _ -> Alcotest.fail "expected Max_rounds_reached from both systems");
  Alcotest.(check (list (pair node_id string)))
    "byte-identical mid-run states" estates cstates

let suite =
  ( "check",
    [
      slow "rb n=4 f=1 verified exhaustively" test_rb_verified;
      quick "rb benign faults verified" test_rb_benign_verified;
      quick "consensus boundary violation replays" test_consensus_violation;
      quick "rb counterexample JSONL round-trips" test_rb_cex_roundtrip;
      quick "jobs 1 vs 2 byte-identical" test_jobs_identical;
      quick "consensus jobs 1 vs 2 byte-identical"
        test_jobs_identical_consensus;
      slow "symmetry reduction is sound" test_symmetry_sound;
      quick "rb state key ignores insertion order" test_rb_key_order_free;
      quick "consensus state key ignores insertion order"
        test_consensus_key_order_free;
      quick "committed CEX_MC1.jsonl golden" test_committed_cex_golden;
      quick "differential: engine vs checker (halting)"
        test_differential_terminating;
      quick "differential: engine vs checker (stalled)"
        test_differential_truncated;
    ] )
