(* Checking, chaos and runtime experiments: bounded exhaustive model
   checking (MC1), the chaos sweep (R1) and the networked runtime
   (RT1–RT3). *)

open Ubpa_util
open Ubpa_sim
open Ubpa_harness
open Ubpa_scenarios
open Exp

let bool_cell = Table.cell_bool

(* ------------------------------------------------------------------ *)
(* R1: chaos sweep — graceful degradation under benign faults          *)
(* ------------------------------------------------------------------ *)

let r1 =
  v "R1" "chaos sweep" @@ fun ctx ->
  (* The sweep size is the claim (>= 50 within-envelope schedules), so it
     is fixed regardless of --fast. *)
  let rows, _records = Chaos_runs.sweep ?jobs:ctx.jobs () in
  let withins = List.filter (fun (r : Chaos.row) -> r.within) rows in
  outcome rows
    ~title:
      "R1: seeded chaos sweep, monitor verdicts per protocol and fault budget \
       (n=11 with one Byzantine mirror, f=3; inside the envelope — \
       crash/omission-only and budget+byz <= f — every monitor must stay \
       green)"
    ~columns:
      [
        "protocol"; "budget"; "byz"; "n"; "envelope"; "runs"; "green";
        "violated"; "reported"; "sample violation";
      ]
    ~render:(fun (r : Chaos.row) ->
      [
        r.protocol;
        Table.cell_int r.budget;
        Table.cell_int r.byz;
        Table.cell_int r.n;
        bool_cell r.within;
        Table.cell_int r.runs;
        Table.cell_int r.green;
        Table.cell_int r.violated;
        Table.cell_int r.reported;
        r.sample;
      ])
    ~claims:
      [
        claim "R1.envelope-green"
          "inside the proven envelope (benign crash/omission-only, budget + \
           byzantine <= f) every monitor stays green in every run"
          (all_yes
             (fun (r : Chaos.row) -> r.violated = 0 && r.green = r.runs)
             withins);
        claim "R1.sweep-size"
          "the within-envelope sweep covers at least 50 randomized fault \
           schedules"
          (List.fold_left (fun acc (r : Chaos.row) -> acc + r.runs) 0 withins
          >= 50);
        claim "R1.first-violation-reported"
          "every violated run produced a first-violation report (the monitors \
           report, they do not assert)"
          (List.for_all (fun (r : Chaos.row) -> r.reported = r.violated) rows);
        claim "R1.degradation-observed"
          "pushing past the envelope degrades: at least one over-budget row \
           has a reported violation"
          (List.exists
             (fun (r : Chaos.row) -> (not r.within) && r.violated >= 1)
             rows);
      ]

(* ------------------------------------------------------------------ *)
(* MC1: bounded exhaustive model checking                               *)
(* ------------------------------------------------------------------ *)

(* Six fixed cells through `Ubpa_check` (cells do not shrink under
   --fast: the verdicts ARE the claims, exactly like R1/CX1). Inside the
   n > 3f envelope the checker must prove safety exhaustively for both
   core protocols; at the f > n/3 boundary (and at two benign faults,
   which exceed the f = 1 budget of n = 4) it must produce a minimized,
   replayable counterexample. The rb n=3 counterexample trace is the
   committed CEX_MC1.jsonl side artifact; the two boundary cells are
   additionally re-run on two worker domains and compared field by field
   (the "det" column), pinning --jobs byte-identity. *)

module Checker = Ubpa_check.Checker

type mc1_cell = {
  protocol : string;  (** a name in [Ubpa_check.Models.all] *)
  n : int;
  f : int;
  crashes : int;
  omits : int;
  rounds : int;
  expect : Checker.verdict;
  cross_jobs : bool;
}

let mc1 =
  v "MC1" "exhaustive model checking" @@ fun ctx ->
  let cell protocol n f crashes omits rounds expect cross_jobs =
    { protocol; n; f; crashes; omits; rounds; expect; cross_jobs }
  in
  let cells =
    Checker.
      [
        (* protocol, n, f, crashes, omits, rounds, expect, cross-jobs? *)
        cell "rb" 3 1 0 0 5 Violated true;
        cell "rb" 4 1 0 0 5 Verified false;
        cell "rb" 4 0 1 1 4 Verified false;
        cell "consensus" 3 1 0 0 8 Violated true;
        cell "consensus" 4 1 0 0 7 Verified false;
        cell "consensus" 4 0 1 1 12 Violated false;
      ]
  in
  let check c ?jobs () =
    let (module M : Ubpa_check.Model.S) =
      List.assoc c.protocol Ubpa_check.Models.all
    in
    let module C = Checker.Make (M) in
    C.check ?jobs ~crash_budget:c.crashes ~omit_budget:c.omits ~n:c.n ~f:c.f
      ~max_rounds:c.rounds ()
  in
  (* (cell, result, jobs 1 and 2 agree field by field on cross-jobs cells) *)
  let rows =
    List.map
      (fun c ->
        let r = check c ?jobs:ctx.jobs () in
        let det =
          if c.cross_jobs then
            Some (check c ~jobs:1 () = check c ~jobs:2 ())
          else None
        in
        (c, r, det))
      cells
  in
  let violations =
    List.filter (fun (_, (r : Checker.result), _) -> r.verdict = Violated) rows
  in
  let verified_with_byz protocol =
    List.exists
      (fun (c, (r : Checker.result), _) ->
        c.protocol = protocol && r.verdict = Verified && c.f >= 1)
      rows
  in
  let cex_cell (r : Checker.result) f =
    match r.cex with Some cx -> f cx | None -> "-"
  in
  outcome rows
    ~files:
      (List.filter_map
         (fun (c, (r : Checker.result), _) ->
           match r.cex with
           | Some cx when c.protocol = "rb" && c.n = 3 ->
               Some ("CEX_MC1.jsonl", cx.cx_jsonl)
           | _ -> None)
         rows)
    ~title:
      "MC1: bounded exhaustive safety checking (frontier BFS over the M1 \
       adversary palette; see docs/CHECKING.md)"
    ~columns:
      [
        "protocol";
        "n";
        "f";
        "crashes";
        "omits";
        "rounds";
        "expect";
        "verdict";
        "ok";
        "explored";
        "distinct";
        "dedup";
        "sym-skips";
        "depth";
        "cex round";
        "cex msgs";
        "replayed";
        "det";
      ]
    ~render:(fun (c, (r : Checker.result), det) ->
      [
        c.protocol;
        Table.cell_int c.n;
        Table.cell_int c.f;
        Table.cell_int c.crashes;
        Table.cell_int c.omits;
        Table.cell_int c.rounds;
        Checker.verdict_to_string c.expect;
        Checker.verdict_to_string r.verdict;
        bool_cell (r.verdict = c.expect);
        Table.cell_int r.stats.explored;
        Table.cell_int r.stats.distinct;
        Table.cell_int r.stats.dedup_hits;
        Table.cell_int r.stats.sym_skips;
        Table.cell_int r.stats.depth;
        cex_cell r (fun cx -> Table.cell_int cx.cx_round);
        cex_cell r (fun cx ->
            Table.cell_int (cx.cx_byz_msgs + cx.cx_crashes + cx.cx_omits));
        cex_cell r (fun cx -> bool_cell cx.cx_replayed);
        (match det with Some same -> bool_cell same | None -> "-");
      ])
    ~claims:
      [
        claim "MC1.envelope-verified"
          "every cell's verdict matches its expectation (safety proved inside \
           the n > 3f envelope, violated outside it)"
          (all_yes
             (fun (c, (r : Checker.result), _) -> r.verdict = c.expect)
             rows);
        claim "MC1.two-protocols-proved"
          "both core protocols are exhaustively verified with f >= 1 \
           byzantine nodes"
          (verified_with_byz "rb" && verified_with_byz "consensus");
        claim "MC1.boundary-violation"
          "some cell outside the fault envelope yields a safety violation"
          (List.exists
             (fun (c, _, _) -> 3 * (c.f + c.crashes + c.omits) >= c.n)
             violations);
        claim "MC1.cex-replayable"
          "every counterexample replays to the same violation under the live \
           trace engine"
          (all_yes
             (fun (_, (r : Checker.result), _) ->
               match r.cex with Some cx -> cx.cx_replayed | None -> false)
             violations);
        claim "MC1.exhaustive"
          "no cell ran out of state budget (the verdicts are exhaustive, not \
           samples)"
          (List.for_all
             (fun (_, (r : Checker.result), _) -> r.verdict <> Out_of_budget)
             rows);
        claim "MC1.jobs-identical"
          "re-running checked cells on two worker domains reproduces the full \
           result (verdict, stats, counterexample) field by field"
          (all_yes_opt (fun (_, _, det) -> det) rows);
      ]

(* ------------------------------------------------------------------ *)
(* RT1: networked runtime vs lockstep simulator                         *)
(* ------------------------------------------------------------------ *)

(* RT1-RT3 iterate the runtime's protocol table (Runtime_runs.runners:
   rb, then consensus) over both transports, with ids seeded 1. RB never
   halts, so its runs stop at 6 rounds (it accepts in round 3);
   consensus halts well within 40. *)
let rt_transports = [ ("domains", `Domains); ("socket", `Socket) ]
let rt_rounds = function "rb" -> 6 | _ -> 40
let rt_run proto = List.assoc proto Runtime_runs.runners

(* Whether every named check of a run passed; an error row passes none. *)
let rt_ok run names =
  match run with
  | Ok (s : Runtime_runs.summary) ->
      List.for_all (Runtime_exec.passed s.checks) names
  | Error _ -> false

let rt_holds run (f : Runtime_runs.summary -> bool) =
  match run with Ok s -> f s | Error _ -> false
let sim_equal = [ "decisions"; "decide-rounds"; "rounds"; "trace" ]

(* Eight fixed cells (cells do not shrink under --fast: the equivalences
   ARE the claims, like MC1/CX1): rb and consensus, each on both
   transports at n = 4 and 7, all-correct populations, rounds run flat
   out. Every cell runs the protocol on actual concurrent per-node
   processes, replays the recorded delivery schedule through the
   simulator's arena core, and runs a fresh simulator instance on the
   same population; the oracle / sim / wire columns are the verdict's
   exact-mode checks. Byte counts are deliberately absent from the
   table — frame counts are deterministic, marshalled sizes are an
   implementation detail of the OCaml version. CI diffs RT1 against its
   baseline in the bench-smoke job, which runs OCaml 5.2 alone. *)
let rt1 =
  v "RT1" "networked runtime oracle" @@ fun _ ->
  let rows =
    List.concat_map
      (fun n ->
        let ids = Harness.make_ids ~seed:1L n in
        List.concat_map
          (fun (tname, transport) ->
            List.map
              (fun (proto, (run : Runtime_runs.run)) ->
                (proto, tname, n, run ~transport ~max_rounds:(rt_rounds proto) ids))
              Runtime_runs.runners)
          rt_transports)
      [ 4; 7 ]
  in
  let run_of (_, _, _, run) = run in
  outcome rows
    ~title:
      "RT1: networked runtime, per-node processes vs the lockstep simulator \
       as a trace-equivalence oracle (see docs/OBSERVABILITY.md)"
    ~columns:
      [
        "protocol";
        "transport";
        "n";
        "rounds";
        "decided";
        "msgs";
        "bits";
        "frames";
        "late";
        "oracle";
        "sim-equal";
        "wire-equal";
      ]
    ~render:(fun (proto, tname, n, run) ->
      proto :: tname :: Table.cell_int n
      ::
      (match run with
      | Error e -> [ e; "-"; "-"; "-"; "-"; "-"; "no"; "no"; "no" ]
      | Ok (s : Runtime_runs.summary) ->
          [
            Table.cell_int s.rounds;
            Table.cell_int s.decided;
            Table.cell_int s.msgs;
            Table.cell_int s.bits;
            Table.cell_int s.frames;
            Table.cell_int s.late;
            bool_cell (rt_ok run [ "oracle-replay" ]);
            bool_cell (rt_ok run sim_equal);
            bool_cell (rt_ok run [ "wire" ]);
          ]))
    ~claims:
      [
        claim "RT1.oracle-equivalence"
          "every networked run's recorded delivery schedule replays cleanly \
           through the simulator's arena core (present sets, inboxes, sends)"
          (all_yes (fun r -> rt_ok (run_of r) [ "oracle-replay" ]) rows);
        claim "RT1.sim-equivalence"
          "decisions, decide rounds, executed rounds and the full trace event \
           stream equal a fresh lockstep simulator run on the same population"
          (all_yes (fun r -> rt_ok (run_of r) sim_equal) rows);
        claim "RT1.wire-identical"
          "wire counters (totals and per-round/node/kind breakdowns) are \
           identical across runtime, replay oracle, and simulator"
          (all_yes (fun r -> rt_ok (run_of r) [ "wire" ]) rows);
        claim "RT1.all-correct-decide"
          "every node decides in every cell (all-correct populations)"
          (List.for_all
             (fun (_, _, n, run) -> rt_holds run (fun s -> s.decided = n))
             rows);
        claim "RT1.wire-populated"
          "wire counters are populated on every cell (the transports really \
           carry the protocol's messages)"
          (List.for_all
             (fun r -> rt_holds (run_of r) (fun s -> s.msgs > 0 && s.bits > 0))
             rows);
        claim "RT1.no-late-frames"
          "on fault-free runs the marker fast path keeps every frame in its \
           delivery round"
          (List.for_all (fun r -> rt_holds (run_of r) (fun s -> s.late = 0)) rows);
        (* For each (protocol, n), the domains and socket rows must agree on
           every behavioural column: the transport is a pure carrier. *)
        claim "RT1.transport-identical"
          "domains and socket transports produce behaviourally identical runs \
           cell for cell"
          (pairwise_equal rows
             ~key:(fun (proto, _, n, _) -> (proto, n))
             ~behaviour:(fun r ->
               Result.map
                 (fun (s : Runtime_runs.summary) ->
                   (s.rounds, s.decided, s.msgs, s.bits, s.frames))
                 (run_of r)));
      ]

(* ------------------------------------------------------------------ *)
(* RT2: fault-tolerant networked runtime                                *)
(* ------------------------------------------------------------------ *)

(* Sixteen fixed cells (8 fault configurations x both transports; cells
   do not shrink under --fast): fault-free cells re-run the full RT1
   exact-equivalence gate; within-budget cells (loss, delay, single
   crash) gate on graceful degradation (delivered-schedule oracle,
   monitors with every plan victim excused, agreement and decision of
   the nodes outside the plan); one deliberately beyond-budget cell
   (total receive-omission isolates two of four nodes, more than f = 1)
   is EXPECTED to violate — its point is the committed, replayable
   counterexample trace (the TRACE_RT2.jsonl side file). Every fault
   decision draws from per-directed-edge splitmix64 streams keyed by
   (seed, src, dst, direction), so all cells — including the injected
   counters — are byte-identical across transports, schedulers and
   --jobs. Crash cells need a real deadline (round_ms > 0): wall-clock
   "missing" counts are deliberately absent from the table; only the
   round-counted dead-peer marks are gated. *)

type rt2_row = {
  proto : string;
  tname : string;
  fname : string;
  n : int;
  mode : string;  (** exact | degrade | violate *)
  run : (Runtime_runs.summary, string) result;
  safety : bool;
  cell_ok : bool;
}

let rt2 =
  v "RT2" "fault-tolerant runtime" @@ fun _ ->
  let cell ~proto ~fname ~n ?(round_ms = 0.) ?(max_rounds = rt_rounds proto)
      ?spec ~mode (tname, transport) =
    let ids = Harness.make_ids ~seed:1L n in
    let faults =
      Option.map
        (fun spec ->
          match Ubpa_faults.parse_spec ~ids spec with
          | Ok p -> p
          | Error e -> failwith ("RT2: bad fault spec " ^ spec ^ ": " ^ e))
        spec
    in
    let run =
      rt_run proto ~transport ~round_ms ~max_rounds ?faults ~fault_seed:1L ids
    in
    let safety =
      if String.equal mode "exact" then rt_ok run (sim_equal @ [ "wire" ])
      else rt_ok run [ "monitors"; "survivor-agreement"; "crash-view" ]
    in
    let cell_ok =
      rt_holds run (fun s ->
          if String.equal mode "violate" then
            (not s.ok) && safety && rt_ok run [ "oracle-replay" ]
          else s.ok)
    in
    { proto; tname; fname; n; mode; run; safety; cell_ok }
  in
  (* -- fault-free cells: the exact RT1 gate, n = 5 -- *)
  let fault_free =
    List.concat_map
      (fun transport ->
        List.map
          (fun (proto, _) -> cell ~proto ~fname:"none" ~n:5 ~mode:"exact" transport)
          Runtime_runs.runners)
      rt_transports
  in
  (* -- faulty cells, each on both transports -- *)
  let faulty =
    List.concat_map
      (fun (proto, fname, spec, n, round_ms, max_rounds, mode) ->
        List.map
          (cell ~proto ~fname ~n ?round_ms ?max_rounds ~spec ~mode)
          rt_transports)
      [
        ("rb", "loss=0.10", "loss=0.10", 5, None, None, "degrade");
        ("consensus", "loss=0.10", "loss=0.10", 5, None, None, "degrade");
        ("consensus", "delay", "delay:1@1..4=0.5x1", 5, None, None, "degrade");
        ("rb", "crash-1", "crash:2@2", 5, Some 80., None, "degrade");
        ("consensus", "crash-1", "crash:1@3", 5, Some 80., None, "degrade");
        ( "consensus",
          "isolate",
          "recv-omit:1@1..12=1.0,recv-omit:2@1..12=1.0",
          4,
          None,
          Some 12,
          "violate" );
      ]
  in
  let rows = fault_free @ faulty in
  (* The beyond-budget counterexample trace ships with the artifact — the
     violation must stay replayable, like MC1's counterexamples. *)
  let files =
    List.filter_map
      (fun r ->
        match r.run with
        | Ok s when r.mode = "violate" && r.tname = "domains" ->
            Some ("TRACE_RT2.jsonl", Trace.to_jsonl (Trace.of_events s.events))
        | _ -> None)
      rows
  in
  let rows_in mode = List.filter (fun r -> r.mode = mode) rows in
  let oracle r = rt_ok r.run [ "oracle-replay" ] in
  let holds f r = rt_holds r.run f in
  outcome rows ~files
    ~title:
      "RT2: fault-tolerant networked runtime — wire fault injection, \
       deadline-based rounds, graceful degradation under the delivered-\
       schedule oracle (see docs/OBSERVABILITY.md)"
    ~columns:
      [
        "protocol";
        "transport";
        "faults";
        "n";
        "rounds";
        "decided";
        "survivors";
        "late";
        "lost";
        "dup";
        "delayed";
        "dead";
        "oracle";
        "safety";
        "mode";
        "ok";
      ]
    ~render:(fun r ->
      r.proto :: r.tname :: r.fname :: Table.cell_int r.n
      ::
      (match r.run with
      | Error e ->
          [ e; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "no"; "no"; "error"; "no" ]
      | Ok (s : Runtime_runs.summary) ->
          [
            Table.cell_int s.rounds;
            Table.cell_int s.decided;
            Table.cell_int s.survivors;
            Table.cell_int s.late;
            Table.cell_int s.injected.inj_lost;
            Table.cell_int s.injected.inj_dup;
            Table.cell_int s.injected.inj_delayed;
            Table.cell_int (List.length s.dead);
            bool_cell (oracle r);
            bool_cell r.safety;
            r.mode;
            bool_cell r.cell_ok;
          ]))
    ~claims:
      [
        claim "RT2.fault-free-exact"
          "fault-free cells still meet RT1's full exact-equivalence gate \
           (oracle replay, sim equality, wire accounting) — the fault \
           middleware and deadline synchronizer are behaviour-free when idle"
          (all_yes (fun r -> r.cell_ok && oracle r && r.safety) (rows_in "exact"));
        claim "RT2.delivered-oracle"
          "every cell's recorded delivered schedule — holes included — \
           replays cleanly through the oracle's sub-schedule mode"
          (all_yes oracle rows);
        claim "RT2.within-budget-degrades"
          "every within-budget fault cell degrades gracefully on both \
           transports: monitors green, survivors all decide and agree"
          (all_yes (fun r -> r.cell_ok) (rows_in "degrade"));
        claim "RT2.beyond-budget-violates"
          "the beyond-budget cell violates as expected — liveness fails (a \
           survivor never decides) while safety stays green"
          (all_yes
             (fun r ->
               r.cell_ok && r.safety && holds (fun s -> s.decided < s.survivors) r)
             (rows_in "violate"));
        claim "RT2.late-frames-delay"
          "delay injection produces strictly positive late-frame counts (the \
           deadline synchronizer really drops stragglers)"
          (List.exists
             (fun r -> r.fname = "delay" && holds (fun s -> s.late > 0) r)
             rows);
        claim "RT2.injection-live"
          "loss and delay cells inject a strictly positive number of faults \
           (the plans are not vacuous)"
          (List.for_all
             (holds (fun s -> s.injected.inj_lost > 0))
             (List.filter (fun r -> r.fname = "loss=0.10") rows)
          && List.exists
               (fun r ->
                 r.fname = "delay" && holds (fun s -> s.injected.inj_delayed > 0) r)
               rows);
        claim "RT2.dead-peer-tracking"
          "in every crash cell each surviving node independently marks the \
           victim dead (dead marks = survivors)"
          (List.for_all
             (holds (fun s -> List.length s.dead = s.survivors))
             (List.filter (fun r -> r.fname = "crash-1") rows));
        (* Same-fault cells must agree across transports on every behavioural
           column — including the injected-fault counters, which is the
           per-edge-stream determinism claim made real. *)
        claim "RT2.transport-identical"
          "domains and socket produce byte-identical behaviour and \
           injected-fault counters cell for cell"
          (pairwise_equal rows
             ~key:(fun r -> (r.proto, r.fname, r.n))
             ~behaviour:(fun r ->
               ( Result.map
                   (fun (s : Runtime_runs.summary) ->
                     ( (s.rounds, s.decided, s.survivors),
                       (s.late, s.injected, List.length s.dead) ))
                   r.run,
                 (oracle r, r.safety, r.cell_ok) )));
        claim "RT2.violation-trace-committed"
          "the beyond-budget counterexample trace is captured for the \
           committed artifact (TRACE_RT2.jsonl)"
          (List.mem_assoc "TRACE_RT2.jsonl" files);
      ]

(* ------------------------------------------------------------------ *)
(* RT3: runtime latency/throughput — the performance story of RT1/RT2   *)
(* ------------------------------------------------------------------ *)

(* RT1/RT2 prove the networked runtime is *correct* (trace-equivalent to
   the simulator, graceful under faults); RT3 measures how *fast* it is.
   Fixed cells (no --fast shrink, like RT1): per transport, rb and
   consensus at n = 5 run flat out (round_ms = 0, marker fast path
   only), plus consensus under 60ms and 150ms round-deadline floors;
   then rb and consensus flat out at n = 16 and n = 64, where a round's
   cost grows with the inbox and with the number of peers awaited.
   Frames/late/rounds/decided are deterministic and gated cell-for-cell
   across transports; elapsed, frames/s and avg-round-ms are wall-clock
   (unit-suffixed, exempt from exact diff and metric comparison) and
   time the networked run alone, not the oracle replay that follows it.
   The under-deadline column is the measured-round-time-vs-floor
   comparison: the deadline synchronizer's marker fast path advances as
   soon as all markers arrive, so even floored rounds finish well under
   the floor — gated only on the roomy 150ms floor so a loaded CI host
   cannot flake it. *)
let rt3 =
  v "RT3" "runtime latency/throughput" @@ fun _ ->
  let cells n protos =
    let ids = Harness.make_ids ~seed:1L n in
    List.concat_map
      (fun (tname, transport) ->
        List.map
          (fun (proto, round_ms) ->
            ( proto,
              tname,
              n,
              round_ms,
              rt_run proto ~transport ~round_ms ~max_rounds:(rt_rounds proto)
                ids ))
          protos)
      rt_transports
  in
  let flat_out = [ ("rb", 0.); ("consensus", 0.) ] in
  let rows =
    cells 5 (flat_out @ [ ("consensus", 60.); ("consensus", 150.) ])
    @ cells 16 flat_out @ cells 64 flat_out
  in
  let avg_round_ms (s : Runtime_runs.summary) =
    s.run_ms /. float_of_int (max s.rounds 1)
  in
  let holds f (_, _, _, _, run) = rt_holds run f in
  outcome rows
    ~title:
      "RT3: networked runtime latency/throughput — frames/sec per transport \
       and measured round time vs the --round-ms floor (timing cells are \
       wall-clock and exempt; rounds/decided/frames/late are deterministic \
       and gated)"
    ~columns:
      [
        "protocol"; "transport"; "n"; "round-ms"; "rounds"; "decided";
        "frames"; "late"; "elapsed"; "frames/s"; "avg-round-ms";
        "under-deadline";
      ]
    ~render:(fun (proto, tname, n, round_ms, run) ->
      proto :: tname :: Table.cell_int n
      :: (if round_ms > 0. then Printf.sprintf "%.0f" round_ms else "0")
      ::
      (match run with
      | Error e -> [ e; "-"; "-"; "-"; "-"; "-"; "-"; "no" ]
      | Ok (s : Runtime_runs.summary) ->
          [
            Table.cell_int s.rounds;
            Table.cell_int s.decided;
            Table.cell_int s.frames;
            Table.cell_int s.late;
            Printf.sprintf "%.1fms" s.run_ms;
            Printf.sprintf "%.0f/s"
              (float_of_int s.frames /. (Float.max s.run_ms 1e-3 /. 1000.));
            Printf.sprintf "%.1fms" (avg_round_ms s);
            (if round_ms > 0. then bool_cell (avg_round_ms s <= round_ms)
             else "-");
          ]))
    ~claims:
      [
        claim "RT3.populated"
          "every cell runs the protocol over a real transport (frames > 0)"
          (List.for_all (holds (fun s -> s.frames > 0)) rows);
        claim "RT3.all-decide"
          "every node decides in every cell (all-correct populations)"
          (List.for_all
             (fun (_, _, n, _, run) -> rt_holds run (fun s -> s.decided = n))
             rows);
        claim "RT3.no-late-frames"
          "the marker fast path keeps every frame in its round at every \
           deadline floor"
          (List.for_all (holds (fun s -> s.late = 0)) rows);
        claim "RT3.under-deadline"
          "with the 150ms round floor the measured average round time stays \
           under the floor — rounds advance on markers, not on deadline \
           expiry"
          (all_yes
             (holds (fun s -> avg_round_ms s <= 150.))
             (List.filter
                (fun (_, _, _, round_ms, _) -> round_ms = 150.)
                rows));
        (* Same-cell rows must agree across transports on every
           deterministic column; timing columns are exempt. *)
        claim "RT3.transport-identical"
          "domains and socket transports produce identical rounds, \
           decisions, frame and late counts cell for cell"
          (pairwise_equal rows
             ~key:(fun (proto, _, n, round_ms, _) -> (proto, n, round_ms))
             ~behaviour:(fun (_, _, _, _, run) ->
               Result.map
                 (fun (s : Runtime_runs.summary) ->
                   (s.rounds, s.decided, s.frames, s.late))
                 run));
      ]
