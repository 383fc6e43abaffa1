(* Engine and complexity experiments: the sweep executor's determinism
   (PERF2), the arena delivery core at scale (SCALE), wire-level
   complexity (CX1) and sub-quadratic committee agreement (CX2). *)

open Ubpa_util
open Ubpa_sim
open Ubpa_harness
open Ubpa_scenarios
open Exp

let bool_cell = Table.cell_bool

(* ------------------------------------------------------------------ *)
(* PERF2: the determinism gate for the multicore sweep executor         *)
(* ------------------------------------------------------------------ *)

(* Every sub-sweep below is seed-deterministic and timing-free. Each is
   re-run at jobs = 1, 2 and 8 regardless of --jobs or --fast, and each
   row carries the FNV-1a digest of its cell results in merge order, so
   the finished table is byte-identical on any machine, at any --jobs,
   under either pool backend. It is committed to bench/baseline, which
   makes `bench_diff --exact` (and the CI claim gate) turn any ordering
   or determinism regression in the executor into a hard failure. *)

let perf2 =
  v "PERF2" "sweep executor determinism" @@ fun _ ->
  let sweeps =
    [
      ( "pool-map",
        fun ~jobs ->
          Pool.map ~jobs
            (fun i -> Printf.sprintf "%d:%d" i ((i * i * 31) + 7))
            (List.init 64 Fun.id) );
      ( "consensus-f",
        fun ~jobs ->
          Pool.map ~jobs
            (fun (f, seed) ->
              let s =
                Scenarios.Consensus_int.run ~seed
                  ~byz:
                    (List.init f (fun _ ->
                         Scenarios.Consensus_int.Attacks.split_world 0 1))
                  ~n_correct:((2 * f) + 1)
                  ~inputs:(fun i -> i mod 2)
                  ()
              in
              Printf.sprintf "f=%d seed=%Ld rounds=%d agreed=%b msgs=%d" f
                seed
                (List.fold_left max 0 s.decision_rounds)
                s.agreed s.delivered_msgs)
            (List.concat_map
               (fun f -> List.map (fun seed -> (f, seed)) [ 3L; 11L ])
               [ 1; 2 ]) );
      ( "rb-n",
        fun ~jobs ->
          Pool.map ~jobs
            (fun n ->
              let s = Scenarios.Rb.run ~n_correct:n ~payload:"m" () in
              Printf.sprintf "n=%d acc=%b cons=%b r=%d-%d msgs=%d" n
                s.all_accepted_sender_payload s.consistent_acceptance
                s.min_accept_round s.max_accept_round s.delivered_msgs)
            [ 4; 7; 13 ] );
      ( "chaos-mini",
        fun ~jobs ->
          let rows, records =
            Chaos_runs.sweep ~jobs ~protocols:[ "rb" ] ~budgets:[ 0; 1 ]
              ~seeds_per_budget:2 ()
          in
          List.map
            (fun (r : Chaos.row) ->
              Printf.sprintf "%s b=%d green=%d violated=%d" r.protocol
                r.budget r.green r.violated)
            rows
          @ List.map
              (fun (rc : Chaos_runs.run_record) ->
                Printf.sprintf "%s seed=%Ld b=%d v=%b" rc.protocol rc.seed
                  rc.budget (rc.violation <> None))
              records );
    ]
  in
  (* (sweep, jobs, cells, digest, matches the jobs=1 digest) *)
  let rows =
    List.concat_map
      (fun (name, run) ->
        let digests =
          List.map
            (fun jobs ->
              let cells = run ~jobs in
              (jobs, List.length cells, fnv1a (String.concat "\n" cells)))
            [ 1; 2; 8 ]
        in
        let _, _, reference = List.hd digests in
        List.map
          (fun (jobs, cells, digest) ->
            (name, jobs, cells, digest, Int64.equal digest reference))
          digests)
      sweeps
  in
  outcome rows
    ~title:
      "PERF2: multicore sweep executor determinism — fixed sub-sweeps re-run \
       at jobs=1/2/8 must merge cell-for-cell identically (digests \
       independent of --fast, --jobs, machine, pool backend)"
    ~columns:[ "sweep"; "jobs"; "cells"; "digest"; "match" ]
    ~render:(fun (name, jobs, cells, digest, matches) ->
      [
        name;
        Table.cell_int jobs;
        Table.cell_int cells;
        digest_cell digest;
        bool_cell matches;
      ])
    ~claims:
      [
        claim "PERF2.deterministic-across-jobs"
          "every sub-sweep digest at jobs=2 and jobs=8 equals the jobs=1 \
           digest — parallel tables are cell-for-cell identical to serial ones"
          (all_yes (fun (_, _, _, _, matches) -> matches) rows
          && List.exists (fun (_, jobs, _, _, _) -> jobs = 8) rows);
        claim "PERF2.order-preserved"
          "the synthetic pool-map sweep preserves submission order at every \
           jobs level"
          (all_yes
             (fun (_, _, _, _, matches) -> matches)
             (List.filter (fun (name, _, _, _, _) -> name = "pool-map") rows));
      ]

(* ------------------------------------------------------------------ *)
(* SCALE: the arena core at n up to 10,000                             *)
(* ------------------------------------------------------------------ *)

(* The paper experiments stop around n=61 because every workload is
   Ω(n²) deliveries. SCALE sweeps the arena core far past that:
   single-sender RB to n = 10,000 and all-correct consensus to n = 301,
   with wire accounting off so the sweep measures the engine, not the
   observer. At every overlap size both the reference core and the
   arena core run the identical workload and must produce identical
   digests, delivered counts and round counts — the identity claim that
   lets the larger arena-only rows be trusted. The minor-w/msg column is
   GC minor words allocated per delivered message; the arena core's
   whole point is that this stays flat as n explodes (the inbox lists
   the protocol reads are the only steady-state allocation). Unit
   suffixes keep the alloc/timing cells out of metric comparison;
   bench_diff additionally exempts them from exact mode. The
   state-w/pair column is RB's protocol state after the run, in words per
   (node, sender) pair: deterministic, so exact-gated, and bounded by the
   SCALE.rb-state-per-pair claim. The elapsed and msgs/s columns are the
   two cores' wall-clock timings at each overlap size. *)

module Rbs = Unknown_ba.Reliable_broadcast.Make (Unknown_ba.Value.String)
module Rbs_h = Harness.Make (Rbs)
module Cint = Unknown_ba.Consensus.Make (Unknown_ba.Value.Int)
module Cint_h = Harness.Make (Cint)

let scale_rb_rounds = 4

(* Serialize every node's accepted list (sorted by node id) into a
   position-independent FNV-1a digest: equal digests mean the two cores
   delivered byte-identical outputs, not just equal counts. *)
let rb_output_digest net =
  let buf = Buffer.create 4096 in
  let reports =
    List.sort
      (fun (a : Rbs_h.Net.node_report) (b : Rbs_h.Net.node_report) ->
        Node_id.compare a.id b.id)
      (Rbs_h.Net.reports net)
  in
  List.iter
    (fun (r : Rbs_h.Net.node_report) ->
      Buffer.add_string buf (string_of_int (Node_id.to_int r.id));
      Buffer.add_char buf '[';
      (match r.last_output with
      | None -> ()
      | Some out ->
          List.iter
            (fun (a : Rbs.accepted) ->
              Buffer.add_string buf
                (Printf.sprintf "(%s,%d,%d)" a.Rbs.payload
                   (Node_id.to_int a.Rbs.sender)
                   a.Rbs.accepted_round))
            out);
      Buffer.add_char buf ']')
    reports;
  fnv1a (Buffer.contents buf)

(* Every word reachable from the node states, the states array itself
   excluded and the shared sender index counted once, per (node, sender)
   pair. *)
let rb_state_words_per_pair net ~n =
  let states = Array.of_list (List.map snd (Rbs_h.Net.states net)) in
  let words =
    Obj.reachable_words (Obj.repr states) - (Array.length states + 1)
  in
  float_of_int words /. float_of_int (n * n)

type scale_run = {
  rounds : int;
  delivered : int;
  digest : int64;
  state : float option;  (** RB words per (node, sender) pair *)
  ms : float;
  words : float;  (** minor words over the run *)
}

let scale_rb_run ~delivery ~n =
  let ids = Scenarios.make_ids ~seed:98L n in
  let correct =
    List.mapi (fun i id -> (id, if i = 0 then Some "m" else None)) ids
  in
  let net =
    Rbs_h.create ~delivery ~wire_accounting:false ~correct ~byzantine:[] ()
  in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ms () in
  for _ = 1 to scale_rb_rounds do
    Rbs_h.Net.step_round net
  done;
  let ms = Clock.elapsed_ms ~since:t0 in
  let words = Gc.minor_words () -. w0 in
  {
    rounds = scale_rb_rounds;
    delivered = Metrics.delivered (Rbs_h.Net.metrics net);
    digest = rb_output_digest net;
    state = Some (rb_state_words_per_pair net ~n);
    ms;
    words;
  }

let consensus_output_digest net =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (r : Cint_h.Net.node_report) ->
      Buffer.add_string buf
        (Printf.sprintf "%d:%s:%s;" (Node_id.to_int r.id)
           (match r.last_output with
           | Some v -> string_of_int v
           | None -> "-")
           (match r.first_output_round with
           | Some v -> string_of_int v
           | None -> "-")))
    (List.sort
       (fun (a : Cint_h.Net.node_report) (b : Cint_h.Net.node_report) ->
         Node_id.compare a.id b.id)
       (Cint_h.Net.reports net));
  fnv1a (Buffer.contents buf)

let scale_consensus_run ~delivery ~n =
  let ids = Scenarios.make_ids ~seed:99L n in
  let correct = List.mapi (fun i id -> (id, i mod 2)) ids in
  let net =
    Cint_h.create ~delivery ~wire_accounting:false ~correct ~byzantine:[] ()
  in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ms () in
  let (_ : [ `All_halted | `Max_rounds_reached of _ | `No_correct_nodes ]) =
    Cint_h.Net.run ~max_rounds:100 net
  in
  let ms = Clock.elapsed_ms ~since:t0 in
  let words = Gc.minor_words () -. w0 in
  {
    rounds = Cint_h.Net.round net;
    delivered = Metrics.delivered (Cint_h.Net.metrics net);
    digest = consensus_output_digest net;
    state = None;
    ms;
    words;
  }

let scale =
  v "SCALE" "arena core at scale" @@ fun ctx ->
  (* Every overlap size on both cores, then the large sizes on the arena
     core alone, run in table order. *)
  let sweep ~workload ~run ~overlap ~large =
    List.concat_map
      (fun (ns, engines) ->
        List.concat_map
          (fun n ->
            List.map
              (fun (engine, delivery) -> (workload, n, engine, run ~delivery ~n))
              engines)
          ns)
      [
        (overlap, [ ("reference", Delivery.Naive); ("arena", Delivery.Arena) ]);
        (large, [ ("arena", Delivery.Arena) ]);
      ]
  in
  let rb =
    sweep ~workload:"rb-1sender" ~run:scale_rb_run ~overlap:[ 61; 301 ]
      ~large:(if ctx.fast then [] else [ 1_001; 3_001; 10_000 ])
  in
  (* Consensus deliveries grow ~n^3 (rotor candidate echoes scale with n),
     so the large band stops at n=301 — already 55M deliveries; the n^2 RB
     workload is the one that carries the population to 10,000. *)
  let consensus =
    sweep ~workload:"consensus" ~run:scale_consensus_run ~overlap:[ 31; 61 ]
      ~large:(if ctx.fast then [] else [ 301 ])
  in
  let rows = rb @ consensus in
  let words_per_msg r = r.words /. float_of_int (max r.delivered 1) in
  let key (workload, n, _, _) = (workload, n) in
  let groups = List.sort_uniq compare (List.map key rows) in
  let rows_of k = List.filter (fun r -> key r = k) rows in
  let overlap_groups = List.filter (fun k -> List.length (rows_of k) > 1) groups in
  let workloads l = List.sort_uniq compare (List.map fst l) in
  let arena_rb =
    List.filter_map
      (fun (workload, n, engine, r) ->
        if engine = "arena" && workload = "rb-1sender" then Some (n, r)
        else None)
      rows
  in
  let arena_rb_max = List.fold_left (fun acc (n, _) -> max acc n) 0 arena_rb in
  let arena_rb_min =
    List.fold_left (fun acc (n, _) -> min acc n) max_int arena_rb
  in
  let wpm n = Option.map words_per_msg (List.assoc_opt n arena_rb) in
  outcome rows
    ~title:
      "SCALE: arena delivery at large n — single-sender RB to n=10,000 and \
       all-correct consensus to n=301 (55M deliveries), wire accounting off; \
       reference-vs-arena identity gated at every overlap size, minor-w/msg \
       is the flat-allocation evidence (alloc/timing cells are unit-suffixed \
       and exempt from exact diff)"
    ~columns:
      [
        "workload"; "n"; "engine"; "rounds"; "delivered"; "digest";
        "state-w/pair"; "minor-w/msg"; "elapsed"; "msgs/s";
      ]
    ~render:(fun (workload, n, engine, r) ->
      [
        workload;
        Table.cell_int n;
        engine;
        Table.cell_int r.rounds;
        Table.cell_int r.delivered;
        digest_cell r.digest;
        (match r.state with Some w -> Printf.sprintf "%.3f" w | None -> "-");
        Printf.sprintf "%.1fw" (words_per_msg r);
        Printf.sprintf "%.1fms" r.ms;
        Printf.sprintf "%.0f/s"
          (float_of_int r.delivered /. (Float.max r.ms 1e-3 /. 1000.));
      ])
    ~claims:
      [
        claim "SCALE.identical-deliveries"
          "at every overlap size the arena core's digest, delivered count and \
           round count are identical to the reference core's — the identity \
           gate that certifies the arena-only rows"
          (overlap_groups <> []
          && workloads overlap_groups = workloads groups
          && List.for_all
               (fun k ->
                 match rows_of k with
                 | (_, _, _, r0) :: rest ->
                     List.for_all
                       (fun (_, _, _, r) ->
                         Int64.equal r.digest r0.digest
                         && r.delivered = r0.delivered
                         && r.rounds = r0.rounds)
                       rest
                 | [] -> false)
               overlap_groups);
        claim "SCALE.alloc-flat"
          "the arena core's minor words per delivered message at the largest \
           swept RB n stay within 4x the smallest swept n — per-message cost \
           does not grow with the population"
          (match (wpm arena_rb_min, wpm arena_rb_max) with
          | Some lo, Some hi -> hi <= Float.max (4. *. lo) 16.
          | _ -> false);
        claim "SCALE.rb-state-per-pair"
          "RB protocol state stays at or below one word per (node, sender) \
           pair at every swept n: sender sets are bitsets over the run's one \
           sender index, not per-node hash tables"
          (arena_rb <> []
          && List.for_all
               (fun (workload, _, _, r) ->
                 workload <> "rb-1sender"
                 || match r.state with Some w -> w <= 1.0 | None -> false)
               rows);
        claim "SCALE.reaches-target"
          "the RB sweep completes under the arena core at the target \
           population (n=10,000; n=301 in --fast smoke) with every row \
           delivering messages"
          (arena_rb_max >= (if ctx.fast then 301 else 10_000)
          && List.for_all (fun (_, _, _, r) -> r.delivered > 0) rows);
      ]

(* ------------------------------------------------------------------ *)
(* CX1: wire-level complexity accounting                                *)
(* ------------------------------------------------------------------ *)

(* The paper's bounds are message/bit-complexity statements; CX1 measures
   what actually crosses the wire (Ubpa_obs.Wire, fed by both delivery
   cores at their accept points) and fits the measured curves against
   c*n^k envelopes (Ubpa_obs.Complexity). The fits land in the artifact's
   schema-v2 `complexity` block and are mirrored as claims; the sweep is
   fixed regardless of --fast because envelope calibration needs the same
   points on every run. A small traced RB run rides along as the
   TRACE_CX1.jsonl side file. *)
let cx1 =
  v "CX1" "wire-level complexity" @@ fun ctx ->
  let module V = Unknown_ba.Value in
  let module Rb = Unknown_ba.Reliable_broadcast.Make (V.String) in
  let module Hr = Harness.Make (Rb) in
  let module C = Unknown_ba.Consensus.Make (V.Int) in
  let module Hc = Harness.Make (C) in
  let module Hb = Harness.Make (Unknown_ba.Binary_consensus) in
  let everyone_accepted net =
    let reports = Hr.Net.reports net in
    reports <> []
    && List.for_all
         (fun r ->
           match r.Hr.Net.last_output with
           | Some (_ :: _) -> true
           | _ -> false)
         reports
  in
  let rb_run ~delivery ?(wire_accounting = true) ?trace n =
    let ids = Harness.make_ids ~seed:101L n in
    let sender = List.hd ids in
    let correct =
      List.map
        (fun id -> (id, if Node_id.equal id sender then Some "m" else None))
        ids
    in
    let o =
      Hr.execute ~delivery ~wire_accounting ?trace ~seed:101L ~max_rounds:40
        ~stop:everyone_accepted ~settle:2 ~correct ~byzantine:[] ()
    in
    Hr.Net.wire o.Hr.net
  in
  let consensus_run ~delivery ~wire_accounting n =
    let ids = Harness.make_ids ~seed:102L n in
    let correct = List.mapi (fun i id -> (id, i mod 2)) ids in
    let o =
      Hc.execute ~delivery ~wire_accounting ~seed:102L ~max_rounds:1000
        ~correct ~byzantine:[] ()
    in
    Hc.Net.wire o.Hc.net
  in
  let binary_run ~delivery ~wire_accounting n =
    let ids = Harness.make_ids ~seed:103L n in
    let correct = List.mapi (fun i id -> (id, i mod 2 = 0)) ids in
    let o =
      Hb.execute ~delivery ~wire_accounting ~seed:103L ~max_rounds:2000
        ~correct ~byzantine:[] ()
    in
    Hb.Net.wire o.Hb.net
  in
  let runs =
    [
      ( "rb",
        fun ~delivery ~wire_accounting n -> rb_run ~delivery ~wire_accounting n
      );
      ("consensus", consensus_run);
      ("binary", binary_run);
    ]
  in
  (* Minor words are counted per domain, so the runs with and without
     wire accounting share one pool task. *)
  let minor_words f =
    let w0 = Gc.minor_words () in
    let r = f () in
    (r, Gc.minor_words () -. w0)
  in
  (* (algo, n, wire msgs, wire bits, cross-core identity, wire words/msg) *)
  let rows =
    pool ctx [ 5; 9; 13; 21; 31 ] (fun n ->
        List.map
          (fun (algo, run) ->
            let w_arena, on =
              minor_words (fun () ->
                  run ~delivery:Delivery.Arena ~wire_accounting:true n)
            in
            let _, off =
              minor_words (fun () ->
                  run ~delivery:Delivery.Arena ~wire_accounting:false n)
            in
            let w_ref = run ~delivery:Delivery.Naive ~wire_accounting:true n in
            let msgs = Ubpa_obs.Wire.messages w_arena in
            ( algo,
              n,
              msgs,
              Ubpa_obs.Wire.bits w_arena,
              Ubpa_obs.Wire.equal w_arena w_ref,
              (on -. off) /. float_of_int (max msgs 1) ))
          runs)
  in
  let fit name ~exponent algo pick =
    Ubpa_obs.Complexity.fit ~name ~exponent
      (List.filter_map
         (fun (a, n, msgs, bits, _, _) ->
           if String.equal a algo then Some (n, float_of_int (pick msgs bits))
           else None)
         rows)
  in
  (* RB: O(n^2) messages (each of n nodes echoes/readies to all n), and
     constant-size payloads keep bits on the same envelope. *)
  let rb_msgs = fit "rb.msgs" ~exponent:2 "rb" (fun m _ -> m) in
  let rb_bits = fit "rb.bits" ~exponent:2 "rb" (fun _ b -> b) in
  (* Consensus: O(f) phases of all-to-all traffic -> O(n^3) messages; the
     envelope is an upper bound, so terminating early and landing well
     under it still passes. *)
  let consensus_msgs = fit "consensus.msgs" ~exponent:3 "consensus" (fun m _ -> m) in
  (* Binary consensus: the hand-written one-bit sizer keeps wire bits
     within the O(n^3) budget of rotor-paced voting. *)
  let binary_bits = fit "binary.bits" ~exponent:3 "binary" (fun _ b -> b) in
  let largest = List.fold_left (fun acc (_, n, _, _, _, _) -> max acc n) 0 rows in
  (* A small traced run for the observability tooling: TRACE_CX1.jsonl is
     what `ubpa trace --file` examples and the CI trace artifact read. *)
  let tr = Trace.create () in
  let (_ : Ubpa_obs.Wire.t) = rb_run ~delivery:Delivery.Arena ~trace:tr 5 in
  outcome rows
    ~fits:[ rb_msgs; rb_bits; consensus_msgs; binary_bits ]
    ~files:[ ("TRACE_CX1.jsonl", Trace.to_jsonl tr) ]
    ~title:
      "CX1: wire-level complexity (all-correct sweeps; counters from the \
       delivery cores' accept points)"
    ~columns:[ "algo"; "n"; "wire msgs"; "wire bits"; "cross-core"; "wire-w/msg" ]
    ~render:(fun (algo, n, msgs, bits, same, wpm) ->
      [
        algo;
        Table.cell_int n;
        Table.cell_int msgs;
        Table.cell_int bits;
        bool_cell same;
        (* Unit-suffixed like SCALE's minor-w/msg, so that it stays out of
           the derived metrics the threshold gate compares. *)
        Printf.sprintf "%.2fw" wpm;
      ])
    ~claims:
      [
        (* The fits themselves live in the artifact's complexity block; the
           claims mirror their verdicts so the claim gate (and bench_diff's
           pass->fail check) covers them. *)
        claim "CX1.rb-msg-quadratic"
          "measured RB wire messages fit a c*n^2 envelope (O(n^2) message \
           complexity, Theorem rb)"
          rb_msgs.holds;
        claim "CX1.rb-bit-quadratic"
          "measured RB wire bits fit a c*n^2 envelope (constant-size payloads)"
          rb_bits.holds;
        claim "CX1.consensus-msg-cubic"
          "measured consensus wire messages fit a c*n^3 envelope (O(f) phases \
           of O(n^2) traffic)"
          consensus_msgs.holds;
        claim "CX1.binary-bit-cubic"
          "measured binary-consensus wire bits fit a c*n^3 envelope (one-bit \
           vote encoding)"
          binary_bits.holds;
        claim "CX1.cross-core-identity"
          "both delivery cores report identical wire counters (totals, \
           per-round, per-node, per-kind) on every swept run"
          (all_yes (fun (_, _, _, _, same, _) -> same) rows);
        claim "CX1.wire-alloc"
          "wire accounting adds at most 1 minor word per delivery at the \
           largest swept n of every algorithm: each accepted record is sized \
           once and each delivery is an allocation-free counter update"
          (List.for_all
             (fun (algo, _) ->
               List.exists
                 (fun (a, n, _, _, _, wpm) ->
                   a = algo && n = largest && wpm <= 1.)
                 rows)
             runs);
      ]

(* ------------------------------------------------------------------ *)
(* CX2: sub-quadratic committee agreement — per-node bit budgets        *)
(* ------------------------------------------------------------------ *)

(* The protocol side of the scalability story (docs/SCALABILITY.md): the
   King–Saia-style committee protocol on the arena core, population n
   into the thousands with f = n/6 mixed Byzantine strategies, wire
   accounting ON, and the gated quantity is the *per-node* budget —
   sent + received bits of the densest node (Ubpa_obs.Wire.budget_of) —
   fitted against a c·√n·(log₂n)² envelope (Ubpa_obs.Complexity,
   Sqrt_polylog shape). The sweep keeps n ∈ {301, 1001, 3001} in full
   mode (the committed baseline) and shrinks only under --fast; fits are
   calibrated on the smallest swept point either way. At the smallest n
   the identical run is repeated on the reference core and every
   behavioural field must match — the cross-core identity that lets the
   arena-only rows at larger n be trusted (CX1's claim, at the committee
   protocol's sparse fan-out shape). *)
let cx2 =
  v "CX2" "sub-quadratic committee agreement" @@ fun ctx ->
  let module C = Scenarios.Committee_int in
  let ns = if ctx.fast then [ 31; 61; 101 ] else [ 301; 1_001; 3_001 ] in
  let overlap_n = List.hd ns in
  let byz_mix f =
    List.init f (fun i ->
        match i mod 3 with
        | 0 -> C.Attacks.silent_member
        | 1 -> C.Attacks.report_flood 99
        | _ -> C.Attacks.inner_split 0 1)
  in
  let workloads =
    [ ("split", fun i -> i mod 2); ("unanimous", fun _ -> 7) ]
  in
  let run ~delivery ~inputs n =
    let f = n / 6 in
    C.run ~seed:104L ~delivery ~max_rounds:400 ~byz:(byz_mix f)
      ~n_correct:(n - f) ~inputs ()
  in
  (* (workload, n, summary, cross-core identity at the overlap n) *)
  let rows =
    pool ctx ns (fun n ->
        List.map
          (fun (workload, inputs) ->
            let s = run ~delivery:Delivery.Arena ~inputs n in
            let cross =
              if n <> overlap_n then None
              else
                let s' = run ~delivery:Delivery.Naive ~inputs n in
                Some
                  (s.C.outputs = s'.C.outputs
                  && s.C.rounds = s'.C.rounds
                  && s.C.delivered_msgs = s'.C.delivered_msgs
                  && s.C.max_budget_msgs = s'.C.max_budget_msgs
                  && s.C.max_budget_bits = s'.C.max_budget_bits)
            in
            (workload, n, s, cross))
          workloads)
  in
  (* One point per n: the worst (max) per-node budget across workloads —
     the envelope must hold for the hardest cell, not an average. *)
  let fit name pick =
    Ubpa_obs.Complexity.fit_shape ~name
      ~shape:(Ubpa_obs.Complexity.Sqrt_polylog 2)
      (List.map
         (fun n ->
           ( n,
             List.fold_left
               (fun acc (_, n', s, _) ->
                 if n' = n then Float.max acc (float_of_int (pick s)) else acc)
               0. rows ))
         (List.sort_uniq compare (List.map (fun (_, n, _, _) -> n) rows)))
  in
  let node_bits = fit "committee.node-bits" (fun s -> s.C.max_budget_bits) in
  let node_msgs = fit "committee.node-msgs" (fun s -> s.C.max_budget_msgs) in
  let all_cells f = all_yes (fun (_, _, s, _) -> f s) rows in
  outcome rows ~fits:[ node_bits; node_msgs ]
    ~title:
      "CX2: committee-sampling agreement (K=2sqrt(n) committee, q=2log2(n) \
       attestors, f=n/6 mixed adversaries, arena core, wire accounting on) — \
       the gated quantity is the densest node's sent+received budget against \
       a c*sqrt(n)*log^2(n) envelope"
    ~columns:
      [
        "workload"; "n"; "f"; "k"; "byz-in-k"; "q"; "rounds"; "agreed";
        "valid"; "halted"; "monitors"; "node-msgs(max)"; "node-bits(max)";
        "cross-core";
      ]
    ~render:(fun (workload, n, (s : C.summary), cross) ->
      [
        workload;
        Table.cell_int n;
        Table.cell_int s.f;
        Table.cell_int (List.length s.committee);
        Table.cell_int s.byz_members;
        Table.cell_int s.attestor_q;
        Table.cell_int s.rounds;
        bool_cell s.agreed;
        bool_cell s.valid;
        bool_cell s.all_terminated;
        bool_cell s.monitor_green;
        Table.cell_int s.max_budget_msgs;
        Table.cell_int s.max_budget_bits;
        (match cross with Some same -> bool_cell same | None -> "-");
      ])
    ~claims:
      [
        claim "CX2.agreement-under-attack"
          "every cell — both workloads, f = n/6 mixed silent / report-flood / \
           inner-split adversaries — reaches agreement with validity, full \
           termination, and green online monitors"
          (all_cells (fun s -> s.C.agreed)
          && all_cells (fun s -> s.C.valid)
          && all_cells (fun s -> s.C.all_terminated)
          && all_cells (fun s -> s.C.monitor_green));
        claim "CX2.node-bits-subquadratic"
          "the densest node's sent+received bits fit a c*sqrt(n)*log^2(n) \
           envelope across the sweep — per-node traffic is sub-linear, so \
           total traffic is sub-quadratic"
          node_bits.holds;
        claim "CX2.node-msgs-subquadratic"
          "the densest node's sent+received message count fits the same \
           c*sqrt(n)*log^2(n) envelope"
          node_msgs.holds;
        claim "CX2.committee-honest-majority"
          "in every cell the sampled committee keeps its Byzantine members \
           below a third (3*byz < k), so the inner consensus core runs inside \
           its fault envelope"
          (List.for_all
             (fun (_, _, s, _) ->
               3 * s.C.byz_members < List.length s.C.committee)
             rows);
        claim "CX2.cross-core-identity"
          "at the overlap population the arena run matches the reference run \
           field-for-field (outputs, rounds, deliveries, per-node budgets)"
          (all_yes_opt (fun (_, _, _, cross) -> cross) rows);
      ]
