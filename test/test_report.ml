(* Artifact schema round-trips and the bench_diff regression gate. *)

open Ubpa_report
open Helpers

let mk ?(experiment = "E1") ?(fast = true) ?(elapsed_ms = 12.5)
    ?(claims =
      [
        { Artifact.cid = "E1.a"; description = "bound a"; status = Artifact.Pass };
        { Artifact.cid = "E1.b"; description = "bound b"; status = Artifact.Pass };
      ])
    ?(rows = [ [ "4"; "yes"; "48" ]; [ "7"; "yes"; "147" ] ])
    ?(complexity = []) () =
  let columns = [ "n"; "ok"; "msgs" ] in
  {
    Artifact.experiment;
    title = "fixture table";
    fast;
    seeds = [ 1; 2 ];
    elapsed_ms;
    columns;
    rows;
    claims;
    metrics = Artifact.derive_metrics ~columns ~rows;
    complexity;
  }

let fail_claim c = { c with Artifact.status = Artifact.Fail }

let test_derive_metrics () =
  let a = mk () in
  (* "n" and "msgs" are numeric, "ok" is not. *)
  check_true "numeric columns only"
    (List.map fst a.Artifact.metrics
    = [ "n:sum"; "n:max"; "msgs:sum"; "msgs:max" ]);
  check_true "sum" (List.assoc "msgs:sum" a.Artifact.metrics = 195.);
  check_true "max" (List.assoc "msgs:max" a.Artifact.metrics = 147.)

let test_json_roundtrip () =
  let a = mk () in
  match Artifact.of_json (Artifact.to_json a) with
  | Ok a' -> check_true "artifact round-trips" (a = a')
  | Error msg -> Alcotest.fail msg

let test_write_load_dir () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "ubpa-report-test" in
  let nested = Filename.concat (Filename.concat dir "deep") "er" in
  let a = mk () and b = mk ~experiment:"E2" () in
  let (_ : string) = Artifact.write ~dir:nested a in
  let (_ : string) = Artifact.write ~dir:nested b in
  (match Artifact.load_dir nested with
  | Ok [ a'; b' ] ->
      check_true "sorted by experiment"
        (a'.Artifact.experiment = "E1" && b'.Artifact.experiment = "E2");
      check_true "contents survive the filesystem" (a = a')
  | Ok l -> Alcotest.failf "expected 2 artifacts, got %d" (List.length l)
  | Error msg -> Alcotest.fail msg);
  check_true "missing dir is an error"
    (match Artifact.load_dir (Filename.concat dir "nope") with
    | Error _ -> true
    | Ok _ -> false)

let test_check_claims () =
  let ok = mk () in
  check_true "all-pass artifacts gate clean"
    (Diff.failures (Diff.check_claims [ ok ]) = []);
  let bad =
    mk ~claims:(List.map fail_claim ok.Artifact.claims) ()
  in
  check_int "each failed claim is one failure" 2
    (List.length (Diff.failures (Diff.check_claims [ ok; bad ])));
  let empty = mk ~claims:[] () in
  let issues = Diff.check_claims [ empty ] in
  check_true "empty claims block is info, not failure"
    (Diff.failures issues = [] && issues <> [])

let test_compare_identical () =
  let a = [ mk (); mk ~experiment:"E2" () ] in
  check_true "dir diffed against itself is clean"
    (Diff.failures (Diff.compare ~baseline:a ~candidate:a ()) = [])

let test_compare_claim_regression () =
  let base = mk () in
  let cand =
    mk ~claims:(List.map fail_claim base.Artifact.claims) ()
  in
  let fs = Diff.failures (Diff.compare ~baseline:[ base ] ~candidate:[ cand ] ()) in
  (* Each claim fails twice: once as a pass->fail flip, once absolutely. *)
  check_true "claim regression fails the gate" (List.length fs >= 2)

let test_compare_metric_regression () =
  let base = mk () in
  let worse = mk ~rows:[ [ "4"; "yes"; "480" ]; [ "7"; "yes"; "1470" ] ] () in
  let fs =
    Diff.failures (Diff.compare ~baseline:[ base ] ~candidate:[ worse ] ())
  in
  check_true "10x message growth fails the default 10% budget" (fs <> []);
  check_true "a 200%% budget absorbs small growth"
    (Diff.failures
       (Diff.compare ~threshold:2000. ~baseline:[ base ] ~candidate:[ worse ] ())
    = [])

let test_compare_missing_experiment () =
  let base = [ mk (); mk ~experiment:"E2" () ] in
  let cand = [ mk () ] in
  check_true "dropping an experiment fails the gate"
    (Diff.failures (Diff.compare ~baseline:base ~candidate:cand ()) <> [])

let test_compare_incomparable_sweeps () =
  let base = mk ~fast:false () in
  let cand = mk ~fast:true ~rows:[ [ "4"; "yes"; "999999" ] ] () in
  let issues = Diff.compare ~baseline:[ base ] ~candidate:[ cand ] () in
  check_true "fast-vs-full sweeps skip the metric gate"
    (Diff.failures issues = [])

let test_exact_gate () =
  let base = mk () in
  check_true "exact mode passes on identical tables"
    (Diff.failures
       (Diff.compare ~exact:true ~baseline:[ base ] ~candidate:[ base ] ())
    = []);
  (* A one-cell drift is invisible to the metric gate at default threshold
     (48 -> 49 is ~2% growth) but must fail the exact gate. *)
  let drifted = mk ~rows:[ [ "4"; "yes"; "49" ]; [ "7"; "yes"; "147" ] ] () in
  check_true "cell drift passes the threshold gate"
    (Diff.failures
       (Diff.compare ~baseline:[ base ] ~candidate:[ drifted ] ())
    = []);
  check_true "cell drift fails the exact gate"
    (Diff.failures
       (Diff.compare ~exact:true ~baseline:[ base ] ~candidate:[ drifted ] ())
    <> []);
  (* Wall-clock metadata stays exempt even in exact mode. *)
  let slower = mk ~elapsed_ms:9999. () in
  check_true "elapsed_ms is exempt from the exact gate"
    (Diff.failures
       (Diff.compare ~exact:true ~baseline:[ base ] ~candidate:[ slower ] ())
    = [])

(* The default gate flags only a vanished claim or a pass -> fail flip;
   exact mode requires the claims list itself to be unchanged. *)
let test_exact_claims () =
  let base = mk () in
  let reworded =
    mk
      ~claims:
        (List.map
           (fun (c : Artifact.claim) ->
             if c.cid = "E1.a" then { c with description = "bound a, loosened" }
             else c)
           base.Artifact.claims)
      ()
  in
  let reordered = mk ~claims:(List.rev base.Artifact.claims) () in
  let added =
    mk
      ~claims:
        (base.Artifact.claims
        @ [
            { Artifact.cid = "E1.c"; description = "bound c"; status = Artifact.Pass };
          ])
      ()
  in
  List.iter
    (fun (what, cand) ->
      check_true (what ^ " passes the default gate")
        (Diff.failures (Diff.compare ~baseline:[ base ] ~candidate:[ cand ] ())
        = []);
      check_true (what ^ " fails the exact gate")
        (Diff.failures
           (Diff.compare ~exact:true ~baseline:[ base ] ~candidate:[ cand ] ())
        <> []))
    [
      ("a reworded claim", reworded);
      ("reordered claims", reordered);
      ("an added claim", added);
    ];
  check_true "claims are compared even when the fast flags differ"
    (Diff.failures
       (Diff.compare ~exact:true ~baseline:[ mk ~fast:false () ]
          ~candidate:[ reordered ] ())
    <> [])

let test_time_gate_opt_in () =
  let base = mk ~elapsed_ms:10. () in
  let cand = mk ~elapsed_ms:100. () in
  check_true "timing is not gated by default"
    (Diff.failures (Diff.compare ~baseline:[ base ] ~candidate:[ cand ] ()) = []);
  check_true "timing gated when a budget is given"
    (Diff.failures
       (Diff.compare ~time_threshold:50. ~baseline:[ base ] ~candidate:[ cand ]
          ())
    <> [])

let suite =
  ( "report",
    [
      quick "derive_metrics picks numeric columns" test_derive_metrics;
      quick "artifact JSON round-trip" test_json_roundtrip;
      quick "write/load_dir with nested directories" test_write_load_dir;
      quick "claim gate" test_check_claims;
      quick "diff: identical dirs pass" test_compare_identical;
      quick "diff: claim regression fails" test_compare_claim_regression;
      quick "diff: metric regression fails" test_compare_metric_regression;
      quick "diff: missing experiment fails" test_compare_missing_experiment;
      quick "diff: incomparable sweeps are skipped" test_compare_incomparable_sweeps;
      quick "diff: exact mode is a refactor gate" test_exact_gate;
      quick "diff: exact mode compares claims exactly" test_exact_claims;
      quick "diff: wall-clock gate is opt-in" test_time_gate_opt_in;
    ] )
