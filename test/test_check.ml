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

(* ----- pinned search counts ----- *)

(* [M] with [P.step] counted, field by field like bench/e2e's timed
   model. Atomic, because --jobs 2 steps on worker domains. *)
module Counting (M : Ubpa_check.Model.S) = struct
  let steps = Atomic.make 0

  module Model : Ubpa_check.Model.S = struct
    module P = struct
      include M.P

      let step ~self ~round ~stim st ~inbox =
        Atomic.incr steps;
        M.P.step ~self ~round ~stim st ~inbox
    end

    let name = M.name
    let roots = M.roots
    let palette = M.palette
    let copy_state = M.copy_state
    let state_key = M.state_key
    let input_key = M.input_key
    let output_key = M.output_key
    let recipient_symmetric = M.recipient_symmetric
    let pinned = M.pinned
    let properties = M.properties
  end

  module Ck = Ubpa_check.Checker.Make (Model)
end

module Counted_cons = Counting (Ubpa_check.Models.Consensus)

(* [M] with every state key empty: configurations then differ only in
   what the checker's own key adds (halts, crashes, outputs, pending
   envelopes), so counts over it pin those parts of the key even where
   the model's state key already fixes them. The search is not sound for
   such a model; only its counts matter. *)
module Keyless (M : Ubpa_check.Model.S) : Ubpa_check.Model.S = struct
  include M

  let state_key _ = ""
end

module Ck_keyless_rb = Ubpa_check.Checker.Make (Keyless (Ubpa_check.Models.Rb))

module Ck_keyless_cons =
  Ubpa_check.Checker.Make (Keyless (Ubpa_check.Models.Consensus))

let stats_row (s : Ubpa_check.Checker.stats) =
  [
    s.roots; s.explored; s.distinct; s.dedup_hits; s.sym_skips;
    s.frontier_peak; s.depth;
  ]

(* The full stats of seven cells at the CLI's seed 1, at --jobs 1 and 2.
   Any change to expansion, keys or dedup that moves a count fails here,
   not only in CI's MC1 diff: these cells have thousands of dedup hits.
   Two mix Byzantine vectors with a crash budget, so the siblings of one
   expansion enumerate vectors for different recipient sets (with clone
   classes for RB, without for consensus); the last two key no protocol
   state. *)
let test_pinned_counts () =
  let pin name expected run =
    List.iter
      (fun jobs ->
        let r : Ubpa_check.Checker.result = run jobs in
        Alcotest.(check string)
          (Printf.sprintf "%s verified (jobs %d)" name jobs)
          "verified" (verdict r.verdict);
        Alcotest.(check (list int))
          (Printf.sprintf
             "%s roots/explored/distinct/dedup/sym/peak/depth (jobs %d)" name
             jobs)
          expected (stats_row r.stats))
      [ 1; 2 ]
  in
  pin "consensus n=4 f=1 5 rounds"
    [ 4; 5846; 6314; 22860; 0; 1728; 5 ]
    (fun jobs -> Ck_cons.check ~jobs ~seed:1L ~n:4 ~f:1 ~max_rounds:5 ());
  pin "rb n=4 f=1 3 rounds (symmetry)"
    [ 2; 8482; 8844; 8038; 1648; 4200; 3 ]
    (fun jobs -> Ck_rb.check ~jobs ~seed:1L ~n:4 ~f:1 ~max_rounds:3 ());
  pin "consensus n=4 f=0 crash+omission 6 rounds"
    [ 4; 5532; 8208; 2752; 0; 627; 6 ]
    (fun jobs ->
      Ck_cons.check ~jobs ~seed:1L ~crash_budget:1 ~omit_budget:1 ~n:4 ~f:0
        ~max_rounds:6 ());
  pin "rb n=4 f=1 crash 3 rounds (symmetry)"
    [ 2; 12606; 14528; 39378; 2060; 6220; 3 ]
    (fun jobs ->
      Ck_rb.check ~jobs ~seed:1L ~crash_budget:1 ~n:4 ~f:1 ~max_rounds:3 ());
  pin "consensus n=4 f=1 crash 4 rounds"
    [ 4; 2804; 3830; 4206; 0; 648; 4 ]
    (fun jobs ->
      Ck_cons.check ~jobs ~seed:1L ~crash_budget:1 ~n:4 ~f:1 ~max_rounds:4 ());
  pin "rb n=4 f=1 3 rounds, empty state keys"
    [ 2; 3982; 4242; 8140; 1648; 1950; 3 ]
    (fun jobs -> Ck_keyless_rb.check ~jobs ~seed:1L ~n:4 ~f:1 ~max_rounds:3 ());
  pin "consensus n=4 f=0 crash+omission 8 rounds, empty state keys"
    [ 4; 768; 884; 4940; 0; 81; 8 ]
    (fun jobs ->
      Ck_keyless_cons.check ~jobs ~seed:1L ~crash_budget:1 ~omit_budget:1
        ~n:4 ~f:0 ~max_rounds:8 ())

(* Protocol steps on the first pinned cell: each expansion steps a node
   once per distinct delivered inbox, so a step memo that stops hitting
   (or hits too often) moves this count. Stepping every successor node
   afresh would take 20,214 calls. *)
let test_pinned_step_calls () =
  List.iter
    (fun jobs ->
      Atomic.set Counted_cons.steps 0;
      let r = Counted_cons.Ck.check ~jobs ~seed:1L ~n:4 ~f:1 ~max_rounds:5 () in
      Alcotest.(check (list int))
        "counting model leaves the search unchanged"
        [ 4; 5846; 6314; 22860; 0; 1728; 5 ]
        (stats_row r.stats);
      check_int
        (Printf.sprintf "P.step calls (jobs %d)" jobs)
        4734 (Atomic.get Counted_cons.steps))
    [ 1; 2 ]

(* A horizon below one round, or a negative fault budget, cannot be
   honoured: the check refuses it instead of exploring round 1. *)
let test_rejects_bad_bounds () =
  let rejects name f =
    match f () with
    | (_ : Ubpa_check.Checker.result) ->
        Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  rejects "max_rounds 0" (fun () -> Ck_cons.check ~n:4 ~f:1 ~max_rounds:0 ());
  rejects "max_rounds -3" (fun () ->
      Ck_cons.check ~n:4 ~f:1 ~max_rounds:(-3) ());
  rejects "crash budget -1" (fun () ->
      Ck_cons.check ~crash_budget:(-1) ~n:4 ~f:1 ~max_rounds:2 ());
  rejects "omission budget -1" (fun () ->
      Ck_rb.check ~omit_budget:(-1) ~n:4 ~f:1 ~max_rounds:2 ())

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
  let echo_a = all (P.Echo ("A", c1)) in
  let echoes =
    echo_a @ all (P.Echo ("B", c2))
    |> List.stable_sort (fun (a, _) (b, _) -> Node_id.compare a b)
  in
  let first =
    [
      (List.nth ids 0, P.Present);
      (c1, P.Payload "A");
      (c2, P.Payload "B");
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

(* ----- golden: MC1's two consensus counterexamples ----- *)

(* MC1's consensus cells at the CLI's seed, pinned to fixed bytes: the
   boundary cell (n = 3, f = 1) and the benign-fault cell (n = 4, f = 0,
   one crash and one omission), whose trace carries the crash and the
   dropped delivery. *)
let test_consensus_cex_fingerprints () =
  let pin name ~events ~fp r =
    match r.Ubpa_check.Checker.cex with
    | None -> Alcotest.fail (name ^ ": no counterexample")
    | Some cx ->
        check_true (name ^ ": replayed") cx.cx_replayed;
        check_int (name ^ ": events") events
          (List.length (String.split_on_char '\n' cx.cx_jsonl) - 1);
        check_fp (name ^ ": JSONL fingerprint") fp (fnv1a cx.cx_jsonl)
  in
  pin "consensus n=3 f=1 8 rounds" ~events:29 ~fp:0x3466120460055debL
    (Ck_cons.check ~seed:1L ~n:3 ~f:1 ~max_rounds:8 ());
  pin "consensus n=4 f=0 crash+omission 12 rounds" ~events:53
    ~fp:0x262c794b83675c97L
    (Ck_cons.check ~seed:1L ~crash_budget:1 ~omit_budget:1 ~n:4 ~f:0
       ~max_rounds:12 ())

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

(* Byzantine unicasts through both systems: the checker's scripted
   actions, and in the engine a strategy named "scripted" that sends the
   same envelopes in the same rounds; the crash as above. Beyond states,
   outputs and halts the JSONL traces must agree: the round-1 joins as a
   set (the engine records the Byzantine join first, the checker the
   correct ones first), every other event in order. *)
let test_differential_byzantine () =
  let correct_ids, byz_ids = Ck_cons.population ~seed:7L ~n:5 ~f:1 in
  let byz = List.hd byz_ids and c = List.nth correct_ids in
  let victim = c 2 in
  let correct = List.mapi (fun i id -> (id, i mod 2)) correct_ids in
  (* (round sent, recipient, payload), payloads from the checker's own
     palette for their arrival round: Init to two of four nodes, then
     equivocating Inputs and a Prefer *)
  let msg ~sent i =
    List.nth
      (Ubpa_check.Models.Consensus.palette ~arrival:(sent + 1)
         ~correct:correct_ids ~byzantine:byz_ids)
      i
  in
  let script =
    [
      (1, c 0, msg ~sent:1 0);
      (1, c 1, msg ~sent:1 0);
      (3, c 0, msg ~sent:3 1);
      (3, c 1, msg ~sent:3 0);
      (4, c 3, msg ~sent:4 0);
    ]
  in
  let sent round =
    List.filter_map
      (fun (r, dst, m) -> if r = round then Some (dst, m) else None)
      script
  in
  let max_rounds = 30 in
  let scripted =
    Ubpa_sim.Strategy.v ~name:"scripted" (fun _ _ view ->
        List.map
          (fun (dst, m) -> (Ubpa_sim.Envelope.To dst, m))
          (sent view.Ubpa_sim.Strategy.round))
  in
  let etrace = Ubpa_sim.Trace.create () in
  let eo =
    H.execute ~seed:7L ~delivery:Ubpa_sim.Delivery.Naive
      ~faults:(F.make [ (victim, [ F.crash ~at:crash_round () ]) ])
      ~trace:etrace ~max_rounds ~correct
      ~byzantine:[ (byz, scripted) ]
      ()
  in
  let actions =
    List.init 4 (fun i ->
        let r = i + 1 in
        {
          Ck_cons.crash = (if r = crash_round then Some victim else None);
          omit = None;
          byz = List.map (fun (dst, m) -> (byz, dst, m)) (sent r);
        })
  in
  let ctrace = Ubpa_sim.Trace.create () in
  let co =
    Ck_cons.replay ~trace:ctrace ~max_rounds ~correct ~byzantine:byz_ids
      ~actions ()
  in
  check_true "no property violated" (co.violation = None);
  check_true "both halted"
    (eo.H.finished = `All_halted && co.Ck_cons.finished = `All_halted);
  check_int "same round count" eo.H.rounds co.Ck_cons.rounds;
  let state_keys =
    H.Net.states eo.H.net
    |> List.map (fun (id, st) -> (id, Ubpa_check.Models.Consensus.state_key st))
  in
  Alcotest.(check (list (pair node_id string)))
    "byte-identical terminal states" state_keys co.Ck_cons.state_keys;
  check_true "same outputs" (eo.H.outputs = co.Ck_cons.outputs);
  Alcotest.(check (list (pair node_id int)))
    "same halts"
    (List.filter_map
       (fun (r : H.Net.node_report) ->
         Option.map (fun h -> (r.id, h)) r.halted_at)
       eo.H.reports)
    co.Ck_cons.halted;
  let lines tr =
    let joins, rest =
      List.partition
        (fun (e : Ubpa_sim.Trace.event) ->
          e.round = 1 && e.kind = Ubpa_sim.Trace.Join)
        (Ubpa_sim.Trace.events tr)
    in
    let line e = Json.to_string (Ubpa_sim.Trace.event_to_json e) in
    (List.sort compare (List.map line joins), List.map line rest)
  in
  let ejoins, erest = lines etrace and cjoins, crest = lines ctrace in
  check_true "the script delivered Byzantine sends"
    (List.exists (fun l -> contains l "byz-send") erest);
  check_true "and the crash"
    (List.exists (fun l -> contains l "fault: crash") erest);
  Alcotest.(check (list string)) "round-1 joins, as a set" ejoins cjoins;
  Alcotest.(check (list string)) "every other event, in order" erest crest

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
      quick "pinned search counts at jobs 1 and 2" test_pinned_counts;
      quick "pinned protocol step calls" test_pinned_step_calls;
      quick "bad horizon or budget is rejected" test_rejects_bad_bounds;
      quick "rb state key ignores insertion order" test_rb_key_order_free;
      quick "consensus state key ignores insertion order"
        test_consensus_key_order_free;
      quick "committed CEX_MC1.jsonl golden" test_committed_cex_golden;
      quick "consensus counterexamples pinned to fixed bytes"
        test_consensus_cex_fingerprints;
      quick "differential: engine vs checker (halting)"
        test_differential_terminating;
      quick "differential: engine vs checker (stalled)"
        test_differential_truncated;
      quick "differential: engine vs checker (Byzantine script)"
        test_differential_byzantine;
    ] )
