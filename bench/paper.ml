(* The paper's experiments: E1–E13 (one table per claim of the paper,
   see EXPERIMENTS.md) and the ablations A1–A4. *)

open Ubpa_util
open Ubpa_sim
open Ubpa_harness
open Ubpa_scenarios
open Exp

let bool_cell = Table.cell_bool
let f_of_n n = Scenarios.max_f n
let eps = 1e-9
let max_of l = List.fold_left max 0 l

(* Consensus phases are five rounds each, after two set-up rounds. *)
let phases rmax = (rmax - 2 + 4) / 5

(* ------------------------------------------------------------------ *)
(* E1: reliable broadcast — correctness, relay, unforgeability          *)
(* ------------------------------------------------------------------ *)

let e1 =
  v "E1" "reliable broadcast" @@ fun ctx ->
  let rows =
    pool ctx (sizes ctx) (fun n ->
        let f = f_of_n n in
        let cases =
          [
            ("none", [], false);
            ("silent", List.init f (fun _ -> Strategy.silent), false);
            ( "equivocating-sender",
              Scenarios.Rb.Attacks.equivocating_sender "m1" "m2"
              :: List.init (max 0 (f - 1)) (fun _ -> Strategy.silent),
              true );
            ( "partial-sender(0.4)",
              Scenarios.Rb.Attacks.partial_sender "m" ~fraction:0.4
              :: List.init (max 0 (f - 1)) (fun _ -> Strategy.silent),
              true );
          ]
        in
        List.filter_map
          (fun (label, byz, byz_sender) ->
            if f = 0 && byz_sender then None
            else
              let byz = if f = 0 then [] else byz in
              Some
                ( label,
                  Scenarios.Rb.run ~byz ~byz_sender
                    ~n_correct:(n - List.length byz) ~payload:"m" () ))
          cases)
  in
  outcome rows ~title:"E1: reliable broadcast in the id-only model"
    ~columns:
      [
        "n";
        "f";
        "adversary";
        "accepted";
        "consistent";
        "round(min)";
        "round(max)";
        "msgs";
      ]
    ~render:(fun (label, (s : Scenarios.Rb.summary)) ->
      [
        Table.cell_int s.n;
        Table.cell_int s.f;
        label;
        bool_cell s.all_accepted_sender_payload;
        bool_cell s.consistent_acceptance;
        Table.cell_int s.min_accept_round;
        Table.cell_int s.max_accept_round;
        Table.cell_int s.delivered_msgs;
      ])
    ~claims:
      [
        claim "E1.consistency"
          "acceptance is all-or-none across correct nodes (Lemma rb-correct)"
          (all_yes (fun (_, s) -> s.Scenarios.Rb.consistent_acceptance) rows);
        claim "E1.accept-round"
          "honest-sender payloads are accepted by round 4 (round-3 rule plus \
           one relay round)"
          (List.for_all
             (fun (_, (s : Scenarios.Rb.summary)) ->
               (not s.all_accepted_sender_payload) || s.max_accept_round <= 4)
             rows);
        claim "E1.msg-quadratic"
          "deliveries stay within 6*n^2 (O(n^2) message complexity)"
          (List.for_all
             (fun (_, (s : Scenarios.Rb.summary)) ->
               s.delivered_msgs <= 6 * s.n * s.n)
             rows);
      ]

(* ------------------------------------------------------------------ *)
(* E2: rotor-coordinator — O(n) rounds, good round                      *)
(* ------------------------------------------------------------------ *)

let e2 =
  v "E2" "rotor-coordinator" @@ fun ctx ->
  let rows =
    pool ctx (sizes ctx) (fun n ->
        let f = f_of_n n in
        let cases =
          [
            ("none", []);
            ("silent", List.init f (fun _ -> Strategy.silent));
            ( "staggered",
              List.init f (fun i ->
                  Scenarios.Rotor_int.Attacks.staggered_announcer
                    ~fraction:(0.34 +. (0.1 *. float_of_int (i mod 4)))) );
          ]
        in
        List.map
          (fun (label, byz) ->
            let byz = if f = 0 then [] else byz in
            let s =
              Scenarios.Rotor_int.run ~byz ~n_correct:(n - List.length byz) ()
            in
            (label, max_of s.termination_rounds, n + 3, s))
          cases)
  in
  outcome rows ~title:"E2: rotor-coordinator termination and good rounds"
    ~columns:
      [ "n"; "f"; "adversary"; "rounds(max)"; "bound n+3"; "good round"; "msgs" ]
    ~render:(fun (label, rmax, bound, (s : Scenarios.Rotor_int.summary)) ->
      [
        Table.cell_int s.n;
        Table.cell_int s.f;
        label;
        Table.cell_int rmax;
        Table.cell_int bound;
        bool_cell s.good_round_exists;
        Table.cell_int s.delivered_msgs;
      ])
    ~claims:
      [
        claim "E2.round-bound"
          "rotor terminates within n+3 rounds (Theorem rc, O(n))"
          (List.for_all (fun (_, rmax, bound, _) -> rmax <= bound) rows);
        claim "E2.good-round"
          "every run contains a good round with a common correct coordinator"
          (all_yes
             (fun (_, _, _, s) -> s.Scenarios.Rotor_int.good_round_exists)
             rows);
      ]

(* E2b: figure-style series — per-round delivered messages of a rotor run,
   showing the Theta(n^2) echo burst at initialization and the thin
   steady-state tail. *)

let e2b =
  v "E2b" "rotor message profile" @@ fun _ ->
  let ids = Scenarios.make_ids ~seed:76L 13 in
  let module H = Harness.Make (Scenarios.Rotor_int.P) in
  let o =
    H.execute ~max_rounds:100
      ~correct:(List.mapi (fun i id -> (id, i)) ids)
      ~byzantine:[] ()
  in
  let rows = Metrics.delivered_per_round o.H.metrics in
  let peak = List.fold_left (fun acc (_, c) -> max acc c) 1 rows in
  let rec ascending = function
    | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  outcome rows
    ~title:"E2b: rotor message profile over time (n = 13, all correct)"
    ~columns:[ "round"; "delivered"; "profile" ]
    ~render:(fun (round, count) ->
      [
        Table.cell_int round;
        Table.cell_int count;
        String.make (max 1 (40 * count / peak)) '#';
      ])
    ~claims:
      [
        claim "E2b.round-order"
          "delivered_per_round rows come out strictly ascending in round"
          (ascending rows);
        claim "E2b.steady-state"
          "after the round-3/4 echo burst each round carries at most n \
           deliveries"
          (List.for_all (fun (round, d) -> round <= 4 || d <= 13) rows);
      ]

(* ------------------------------------------------------------------ *)
(* E3: consensus — O(f) rounds under the split-world adversary          *)
(* ------------------------------------------------------------------ *)

let e3 =
  v "E3" "consensus O(f)" @@ fun ctx ->
  let rows =
    pool ctx (f_sweep ctx) (fun f ->
        let s =
          Scenarios.Consensus_int.run
            ~byz:
              (List.init f (fun _ ->
                   Scenarios.Consensus_int.Attacks.split_world 0 1))
            ~n_correct:((2 * f) + 1)
            ~inputs:(fun i -> i mod 2)
            ()
        in
        [ (max_of s.decision_rounds, s) ])
  in
  outcome rows ~title:"E3: consensus round complexity vs f (n = 3f+1)"
    ~columns:[ "f"; "n"; "rounds(max)"; "phases"; "agreed"; "valid"; "msgs" ]
    ~render:(fun (rmax, (s : Scenarios.Consensus_int.summary)) ->
      [
        Table.cell_int s.f;
        Table.cell_int s.n;
        Table.cell_int rmax;
        Table.cell_int (phases rmax);
        bool_cell s.agreed;
        bool_cell s.valid;
        Table.cell_int s.delivered_msgs;
      ])
    ~claims:
      [
        claim "E3.agreement" "agreement and validity hold in every run"
          (all_yes (fun (_, s) -> s.Scenarios.Consensus_int.agreed) rows
          && all_yes (fun (_, s) -> s.Scenarios.Consensus_int.valid) rows);
        claim "E3.round-bound"
          "decisions within 5*(f+1)+2 rounds (Theorem earlyCon, O(f))"
          (List.for_all
             (fun (rmax, s) -> rmax <= (5 * (s.Scenarios.Consensus_int.f + 1)) + 2)
             rows);
        claim "E3.phase-bound" "at most f+1 phases are needed"
          (List.for_all
             (fun (rmax, s) -> phases rmax <= s.Scenarios.Consensus_int.f + 1)
             rows);
      ]

(* ------------------------------------------------------------------ *)
(* E4: consensus early termination — unanimous vs split inputs          *)
(* ------------------------------------------------------------------ *)

let e4 =
  v "E4" "early termination" @@ fun ctx ->
  let rows =
    pool ctx (sizes ctx) (fun n ->
        let f = f_of_n n in
        List.map
          (fun (label, inputs) ->
            let s =
              Scenarios.Consensus_int.run
                ~byz:(List.init f (fun _ -> Strategy.silent))
                ~n_correct:(n - f) ~inputs ()
            in
            (n, f, label, max_of s.decision_rounds, s.agreed))
          [ ("unanimous", fun _ -> 1); ("split", fun i -> i mod 2) ])
  in
  outcome rows
    ~title:"E4: early termination (unanimous inputs decide in one phase)"
    ~columns:[ "n"; "f"; "inputs"; "rounds(max)"; "phases"; "agreed" ]
    ~render:(fun (n, f, label, rmax, agreed) ->
      [
        Table.cell_int n;
        Table.cell_int f;
        label;
        Table.cell_int rmax;
        Table.cell_int (phases rmax);
        bool_cell agreed;
      ])
    ~claims:
      [
        claim "E4.agreement" "agreement holds in every run"
          (all_yes (fun (_, _, _, _, agreed) -> agreed) rows);
        claim "E4.early-termination"
          "unanimous inputs decide at the end of phase 1 (round 7)"
          (List.for_all
             (fun (_, _, label, rmax, _) ->
               label <> "unanimous" || (rmax = 7 && phases rmax = 1))
             rows);
      ]

(* ------------------------------------------------------------------ *)
(* E5: approximate agreement — within range, halving, under attack      *)
(* ------------------------------------------------------------------ *)

let e5 =
  v "E5" "approximate agreement" @@ fun ctx ->
  let rows =
    pool ctx (sizes ctx) (fun n ->
        let f = f_of_n n in
        let cases =
          [
            ("none", []);
            ( "pull-apart",
              List.init f (fun _ ->
                  Ubpa_adversary.Aa_attacks.pull_apart ~low:(-1e6) ~high:1e6) );
            ( "outlier",
              List.init f (fun _ -> Ubpa_adversary.Aa_attacks.outlier 1e9) );
            ( "tracker",
              List.init f (fun _ -> Ubpa_adversary.Aa_attacks.tracker ~offset:7.)
            );
          ]
        in
        List.map
          (fun (label, byz) ->
            let byz = if f = 0 then [] else byz in
            ( label,
              Scenarios.Aa.run ~byz ~n_correct:(n - List.length byz)
                ~inputs:(fun i -> float_of_int (10 * i))
                () ))
          cases)
  in
  outcome rows ~title:"E5: approximate agreement (single round)"
    ~columns:[ "n"; "f"; "adversary"; "in-range"; "contraction"; "bound" ]
    ~render:(fun (label, (s : Scenarios.Aa.summary)) ->
      [
        Table.cell_int s.n;
        Table.cell_int s.f;
        label;
        bool_cell s.within_range;
        Table.cell_float ~digits:3 s.contraction;
        "0.500";
      ])
    ~claims:
      [
        claim "E5.containment"
          "outputs lie within the correct input range (Lemma aaWithin)"
          (all_yes (fun (_, s) -> s.Scenarios.Aa.within_range) rows);
        claim "E5.halving"
          "one round contracts the range by at least 1/2 (Lemma aaMed)"
          (List.for_all
             (fun (_, s) -> s.Scenarios.Aa.contraction <= 0.5 +. eps)
             rows);
      ]

(* E5b: approximate agreement in a dynamic network — the range halves each
   round, except where a joiner's value widens it (the paper's caveat). *)

let e5b =
  v "E5b" "dynamic approximate agreement" @@ fun _ ->
  let s =
    Scenarios.Aa.run_dynamic ~n_start:7 ~iterations:10
      ~byz:
        (List.init 2 (fun _ ->
             Ubpa_adversary.Aa_attacks.pull_apart ~low:(-1e6) ~high:1e6))
      ~joins:[ (4, 200.0); (4, 300.0); (4, 400.0); (4, 500.0) ]
      ~inputs:(fun i -> float_of_int (10 * i))
      ()
  in
  let event round =
    match List.filter (fun (r, _) -> r = round) s.joins_applied with
    | [] -> ""
    | l ->
        Printf.sprintf "join: %s"
          (String.concat ", "
             (List.map (fun (_, v) -> Printf.sprintf "%.0f" v) l))
  in
  (* One row per round, then the final containment check ([None]). *)
  outcome
    (List.map Option.some s.range_per_round @ [ None ])
    ~title:
      "E5b: dynamic approximate agreement (joins may widen the range, \
       halving resumes)"
    ~columns:[ "round"; "lo"; "hi"; "spread"; "event" ]
    ~render:(function
      | Some (round, lo, hi) ->
          [
            Table.cell_int round;
            Table.cell_float ~digits:2 lo;
            Table.cell_float ~digits:2 hi;
            Table.cell_float ~digits:4 (hi -. lo);
            event round;
          ]
      | None ->
          [
            "-";
            "-";
            "-";
            (if s.within_global_range then "in-range" else "VIOLATED");
            "final check";
          ])
    ~claims:
      [
        claim "E5b.containment"
          "final outputs lie within the global input range despite joins"
          s.within_global_range;
      ]

(* ------------------------------------------------------------------ *)
(* E6: iterated convergence — unknown-n/f vs Dolev et al. (known f)     *)
(* ------------------------------------------------------------------ *)

module Da = Ubpa_baselines.Dolev_aa
module Da_h = Harness.Make (Da)

(* A pull-apart attack over the baseline's own message type. *)
let da_pull_apart ~low ~high =
  Strategy.v ~name:"da-pull-apart" (fun _rng _self view ->
      let correct = view.Strategy.correct in
      let half = List.length correct / 2 in
      List.mapi
        (fun i t ->
          (Envelope.To t, Da.Estimate (if i < half then low else high)))
        correct)

(* The baseline's correct outputs under [byz_count] pull-apart attackers,
   with ids drawn from [seed]. *)
let dolev_outputs ~seed ~n_correct ~byz_count ~f ~iterations =
  let ids = Scenarios.make_ids ~seed (n_correct + byz_count) in
  let correct_ids = List.filteri (fun i _ -> i < n_correct) ids in
  let byz_ids = List.filteri (fun i _ -> i >= n_correct) ids in
  let correct =
    List.mapi
      (fun i id -> (id, { Da.value = float_of_int (10 * i); iterations; f }))
      correct_ids
  in
  let byzantine =
    List.map (fun id -> (id, da_pull_apart ~low:(-1e6) ~high:1e6)) byz_ids
  in
  let o = Da_h.execute ~correct ~byzantine () in
  List.map (fun (_, (p : Da.progress)) -> p.estimate) o.Da_h.outputs

let dolev_contraction_attacked ~n_correct ~byz_count ~f ~iterations =
  match dolev_outputs ~seed:71L ~n_correct ~byz_count ~f ~iterations with
  | [] -> nan
  | outs -> Stats.range outs /. float_of_int (10 * (n_correct - 1))

let e6 =
  v "E6" "iterated convergence" @@ fun ctx ->
  let n_correct = 7 and byz_count = 3 in
  let rows =
    pool ctx [ 1; 2; 3; 4; 6; 8 ] (fun k ->
        let ours =
          Scenarios.Aa.run ~iterations:k
            ~byz:
              (List.init byz_count (fun _ ->
                   Ubpa_adversary.Aa_attacks.pull_apart ~low:(-1e6) ~high:1e6))
            ~n_correct
            ~inputs:(fun i -> float_of_int (10 * i))
            ()
        in
        let theirs =
          dolev_contraction_attacked ~n_correct ~byz_count ~f:byz_count
            ~iterations:k
        in
        [ (k, ours.contraction, theirs, 0.5 ** float_of_int k) ])
  in
  outcome rows
    ~title:
      "E6: iterated AA convergence under pull-apart attack — unknown n/f vs \
       known-f baseline"
    ~columns:
      [
        "iterations"; "contraction(id-only)"; "contraction(known-f)"; "bound 2^-k";
      ]
    ~render:(fun (k, ours, theirs, bound) ->
      [
        Table.cell_int k;
        Table.cell_float ~digits:6 ours;
        Table.cell_float ~digits:6 theirs;
        Table.cell_float ~digits:6 bound;
      ])
    ~claims:
      [
        claim "E6.convergence-rate"
          "k iterations contract by 2^-k even under pull-apart attack"
          (List.for_all (fun (_, ours, _, bound) -> ours <= bound +. eps) rows);
        claim "E6.matches-known-f"
          "id-only convergence matches the known-f Dolev et al. baseline"
          (List.for_all
             (fun (_, ours, theirs, _) -> Float.abs (ours -. theirs) <= eps)
             rows);
      ]

(* ------------------------------------------------------------------ *)
(* E7: resiliency boundary n > 3f                                       *)
(* ------------------------------------------------------------------ *)

let e7 =
  v "E7" "resiliency boundary" @@ fun ctx ->
  let n = 13 in
  let algorithms =
    [
      ( "consensus (agreement)",
        fun ~seed ~f ->
          let s =
            Scenarios.Consensus_int.run ~seed ~max_rounds:400
              ~byz:
                (List.init f (fun _ ->
                     Scenarios.Consensus_int.Attacks.split_world 0 1))
              ~n_correct:(n - f)
              ~inputs:(fun i -> i mod 2)
              ()
          in
          s.all_terminated && s.agreed );
      ( "approx-agreement (containment)",
        fun ~seed ~f ->
          let s =
            Scenarios.Aa.run ~seed
              ~byz:
                (List.init f (fun _ ->
                     Ubpa_adversary.Aa_attacks.pull_apart ~low:(-1e6) ~high:1e6))
              ~n_correct:(n - f)
              ~inputs:(fun i -> float_of_int (10 * i))
              ()
          in
          s.within_range );
      ( "reliable-broadcast (unforgeability)",
        fun ~seed ~f ->
          (* f forgers echo a payload attributed to a correct node that never
             sent it; past the boundary the forged echoes cross n_v/3, get
             relayed by correct nodes, and the forgery is accepted. *)
          let claimed = List.hd (Scenarios.make_ids ~seed (n - f)) in
          let s =
            Scenarios.Rb.run ~seed
              ~byz:
                (List.init f (fun _ ->
                     Scenarios.Rb.Attacks.forging_echoer "forged" ~claimed))
              ~n_correct:(n - f) ~payload:"real" ()
          in
          List.for_all
            (fun (_, entries) ->
              not (List.exists (fun (m, _, _) -> m = "forged") entries))
            s.accepted );
    ]
  in
  let cells =
    List.concat_map
      (fun (name, run_one) ->
        List.map (fun f -> (name, run_one, f)) [ 0; 2; 4; 5; 6 ])
      algorithms
  in
  let runs = List.length (seeds ctx) in
  let rows =
    pool ctx cells (fun (name, run_one, f) ->
        let safe =
          List.length (List.filter (fun seed -> run_one ~seed ~f) (seeds ctx))
        in
        [ (name, f, n > 3 * f, safe, runs - safe) ])
  in
  outcome rows
    ~title:
      "E7: resiliency boundary (n = 13 fixed, f sweeps across n/3; safety \
       per algorithm)"
    ~columns:[ "algorithm"; "f"; "n>3f"; "runs"; "safe"; "violated" ]
    ~render:(fun (name, f, inside, safe, violated) ->
      [
        name;
        Table.cell_int f;
        bool_cell inside;
        Table.cell_int runs;
        Table.cell_int safe;
        Table.cell_int violated;
      ])
    ~claims:
      [
        claim "E7.safe-inside-boundary"
          "with n > 3f every seeded run is safe (optimal resiliency)"
          (List.for_all
             (fun (_, _, inside, safe, violated) ->
               (not inside) || (violated = 0 && safe = runs))
             rows);
        claim "E7.violated-outside-boundary"
          "with n <= 3f the implemented attacks break safety"
          (List.for_all
             (fun (_, _, inside, _, violated) -> inside || violated >= 1)
             rows);
      ]

(* ------------------------------------------------------------------ *)
(* E8: message complexity vs the known-n/f baselines                    *)
(* ------------------------------------------------------------------ *)

module St = Ubpa_baselines.St_broadcast.Make (Unknown_ba.Value.String)
module St_h = Harness.Make (St)
module St_net = St_h.Net
module Pk = Ubpa_baselines.Phase_king.Make (Unknown_ba.Value.Int)
module Pk_h = Harness.Make (Pk)

let st_messages ~n =
  let ids = Scenarios.make_ids ~seed:72L n in
  let correct =
    List.mapi
      (fun i id ->
        (id, { St.payload = (if i = 0 then Some "m" else None); f = f_of_n n }))
      ids
  in
  let stop net =
    let reports = St_net.reports net in
    reports <> []
    && List.for_all
         (fun r ->
           match r.St_net.last_output with Some (_ :: _) -> true | _ -> false)
         reports
  in
  let o = St_h.execute ~max_rounds:20 ~stop ~correct ~byzantine:[] () in
  o.St_h.delivered_msgs

let pk_messages ~n =
  let ids = Scenarios.make_ids ~seed:73L n in
  let correct =
    List.mapi
      (fun i id -> (id, { Pk.value = i mod 2; members = ids; f = f_of_n n }))
      ids
  in
  let o = Pk_h.execute ~max_rounds:300 ~correct ~byzantine:[] () in
  (o.Pk_h.delivered_msgs, o.Pk_h.rounds)

type e8_row = {
  n : int;
  rb : int;
  st : int;
  cons : int;
  king : int;
  cons_rounds : int;
  king_rounds : int;
}

let e8 =
  v "E8" "message complexity" @@ fun ctx ->
  let rows =
    pool ctx (sizes ctx) (fun n ->
        let rb = Scenarios.Rb.run ~n_correct:n ~payload:"m" () in
        let st = st_messages ~n in
        let cons =
          Scenarios.Consensus_int.run ~n_correct:n ~inputs:(fun i -> i mod 2) ()
        in
        let king, king_rounds = pk_messages ~n in
        [
          {
            n;
            rb = rb.delivered_msgs;
            st;
            cons = cons.delivered_msgs;
            king;
            cons_rounds = cons.rounds;
            king_rounds;
          };
        ])
  in
  outcome rows
    ~title:
      "E8: message complexity, id-only vs known-n/f baselines (all-correct runs)"
    ~columns:
      [
        "n";
        "RB msgs(id-only)";
        "RB msgs(ST)";
        "cons msgs(id-only)";
        "cons msgs(king)";
        "cons rounds(id-only)";
        "cons rounds(king)";
      ]
    ~render:(fun r ->
      List.map Table.cell_int
        [ r.n; r.rb; r.st; r.cons; r.king; r.cons_rounds; r.king_rounds ])
    ~claims:
      [
        claim "E8.rb-overhead"
          "id-only RB costs at most 2x the known-n/f Srikanth-Toueg baseline"
          (List.for_all (fun r -> r.rb <= 2 * r.st) rows);
        claim "E8.consensus-overhead"
          "id-only consensus costs at most 6x the phase-king baseline"
          (List.for_all (fun r -> r.cons <= 6 * r.king) rows);
      ]

(* E8b: message breakdown by kind inside the consensus algorithm. *)

module Cint = Unknown_ba.Consensus.Make (Unknown_ba.Value.Int)
module Cint_h = Harness.Make (Cint)

let consensus_kind_of (m : Cint.message) =
  match m with
  | Cint.Core.Init -> "init"
  | Cint.Core.Cand_echo _ -> "cand-echo"
  | Cint.Core.Input _ -> "input"
  | Cint.Core.Prefer _ -> "prefer"
  | Cint.Core.Strongprefer _ -> "strongprefer"
  | Cint.Core.Opinion _ -> "opinion"

let e8b_kinds =
  [ "init"; "cand-echo"; "input"; "prefer"; "strongprefer"; "opinion" ]

let e8b =
  v "E8b" "message breakdown" @@ fun ctx ->
  let rows =
    pool ctx (sizes ctx) (fun n ->
        let ids = Scenarios.make_ids ~seed:75L n in
        let o =
          Cint_h.execute ~classify:consensus_kind_of ~max_rounds:500
            ~correct:(List.mapi (fun i id -> (id, i mod 2)) ids)
            ~byzantine:[] ()
        in
        let kinds = Metrics.kinds o.Cint_h.metrics in
        [
          ( n,
            fun k -> Option.value ~default:0 (List.assoc_opt k kinds) );
        ])
  in
  outcome rows
    ~title:
      "E8b: consensus message breakdown by kind (send operations, all-correct \
       runs)"
    ~columns:("n" :: e8b_kinds)
    ~render:(fun (n, count) ->
      List.map Table.cell_int (n :: List.map count e8b_kinds))
    ~claims:
      [
        claim "E8b.echo-quadratic"
          "candidate echoes account for 2*n^2 sends (the O(n^2) term)"
          (List.for_all (fun (n, count) -> count "cand-echo" <= 2 * n * n) rows);
        claim "E8b.opinion-constant"
          "opinion messages stay constant per run (coordinator only)"
          (List.for_all (fun (n, count) -> count "opinion" <= n) rows);
      ]

(* ------------------------------------------------------------------ *)
(* E9: parallel consensus — k instances                                 *)
(* ------------------------------------------------------------------ *)

let e9 =
  v "E9" "parallel consensus" @@ fun ctx ->
  let rows =
    pool ctx [ 0; 1; 2; 4; 8; 16 ] (fun k ->
        let s =
          Scenarios.Parallel_int.run
            ~byz:
              [
                Scenarios.Parallel_int.Attacks.ghost_instance ~id:999 1;
                Strategy.silent;
              ]
            ~n_correct:5
            ~inputs:(fun _ -> List.init k (fun j -> (j, 10 * j)))
            ()
        in
        let pairs =
          match s.outputs with (_, o) :: _ -> List.length o | [] -> 0
        in
        [ (k, s, pairs) ])
  in
  outcome rows ~title:"E9: parallel consensus with k instances (n = 7, f = 2)"
    ~columns:[ "k"; "rounds"; "msgs"; "agreed"; "pairs output" ]
    ~render:(fun (k, (s : Scenarios.Parallel_int.summary), pairs) ->
      [
        Table.cell_int k;
        Table.cell_int s.rounds;
        Table.cell_int s.delivered_msgs;
        bool_cell s.agreed;
        Table.cell_int pairs;
      ])
    ~claims:
      [
        claim "E9.agreement" "pair-set agreement holds for every k"
          (all_yes (fun (_, s, _) -> s.Scenarios.Parallel_int.agreed) rows);
        claim "E9.rounds-constant"
          "rounds do not grow with the number of instances k"
          (List.for_all (fun (_, s, _) -> s.Scenarios.Parallel_int.rounds <= 8) rows);
        claim "E9.all-instances-decide" "every started instance outputs a pair"
          (List.for_all (fun (k, _, pairs) -> pairs = k) rows);
      ]

(* ------------------------------------------------------------------ *)
(* E10: dynamic total ordering                                          *)
(* ------------------------------------------------------------------ *)

let e10 =
  v "E10" "total ordering" @@ fun ctx ->
  let module T = Scenarios.Total_order_str in
  let cases =
    [
      ("static n=4", T.no_churn, 4, 8, 1);
      ("join@4", { T.join_at = [ (4, 1) ]; leave_at = [] }, 4, 10, 1);
      ("leave@6", { T.join_at = []; leave_at = [ (6, 1) ] }, 5, 10, 1);
      ("join+leave", { T.join_at = [ (5, 1) ]; leave_at = [ (9, 1) ] }, 5, 12, 1);
      ("3 events/round", T.no_churn, 5, 8, 3);
    ]
  in
  let rows =
    pool ctx cases (fun (label, churn, n_genesis, rounds, epr) ->
        let s = T.run ~churn ~n_genesis ~rounds ~events_per_round:epr () in
        [ (label, s, max_of s.frontier_lags) ])
  in
  outcome rows
    ~title:"E10: total ordering under churn (chain-prefix / growth)"
    ~columns:
      [
        "scenario";
        "rounds";
        "events";
        "chain(max)";
        "prefix-ok";
        "finality lag";
        "msgs";
      ]
    ~render:(fun (label, (s : T.summary), lag) ->
      [
        label;
        Table.cell_int s.rounds;
        Table.cell_int s.events_submitted;
        Table.cell_int (max_of s.chain_lengths);
        bool_cell s.prefix_consistent;
        Table.cell_int lag;
        Table.cell_int s.delivered_msgs;
      ])
    ~claims:
      [
        claim "E10.prefix-consistency"
          "per-node chains are prefix-consistent under churn"
          (all_yes (fun (_, s, _) -> s.T.prefix_consistent) rows);
        claim "E10.finality-lag" "the finality frontier lags at most 20 rounds"
          (List.for_all (fun (_, _, lag) -> lag <= 20) rows);
      ]

(* ------------------------------------------------------------------ *)
(* E11/E12: impossibility constructions                                 *)
(* ------------------------------------------------------------------ *)

module Partition = Ubpa_semisync.Partition

let e11 =
  v "E11" "async impossibility" @@ fun ctx ->
  let rows =
    pool ctx
      [ (2, 2); (3, 3); (4, 4); (2, 6); (5, 3) ]
      (fun (a, b) -> [ (a, b, Partition.asynchronous ~size_a:a ~size_b:b ()) ])
  in
  let values l =
    String.concat "," (List.map string_of_int (List.sort_uniq compare l))
  in
  outcome rows
    ~title:"E11: asynchronous impossibility (partitioned executions disagree)"
    ~columns:[ "|A|"; "|B|"; "A decides"; "B decides"; "disagree"; "in-flight" ]
    ~render:(fun (a, b, (v : Partition.verdict)) ->
      [
        Table.cell_int a;
        Table.cell_int b;
        values v.outputs_a;
        values v.outputs_b;
        bool_cell v.disagreement;
        bool_cell v.undelivered_at_decision;
      ])
    ~claims:
      [
        claim "E11.disagreement"
          "the partitioned asynchronous executions disagree (impossibility)"
          (all_yes (fun (_, _, v) -> v.Partition.disagreement) rows);
        claim "E11.in-flight"
          "messages were still in flight at decision time (the \
           indistinguishability premise)"
          (all_yes (fun (_, _, v) -> v.Partition.undelivered_at_decision) rows);
      ]

let e12 =
  v "E12" "semi-sync impossibility" @@ fun ctx ->
  (* [None]: the construction's premise fails at this delta. *)
  let rows =
    pool ctx
      [ 8.; 16.; 64.; 256.; 1024. ]
      (fun delta ->
        match Partition.semi_synchronous ~size_a:3 ~size_b:3 ~delta () with
        | v -> [ (delta, Some v) ]
        | exception Invalid_argument _ -> [ (delta, None) ])
  in
  let bounded delta (v : Partition.verdict) = v.max_delay <= delta in
  outcome rows
    ~title:
      "E12: semi-synchronous impossibility (finite delay bound, still disagree)"
    ~columns:[ "delta"; "T_a"; "T_b"; "max delay"; "bounded"; "disagree" ]
    ~render:(fun (delta, v) ->
      Table.cell_float ~digits:0 delta
      ::
      (match v with
      | Some (v : Partition.verdict) ->
          [
            Table.cell_float ~digits:1 v.decision_time_a;
            Table.cell_float ~digits:1 v.decision_time_b;
            Table.cell_float ~digits:1 v.max_delay;
            bool_cell (bounded delta v);
            bool_cell v.disagreement;
          ]
      | None -> [ "-"; "-"; "-"; "-"; "premise fails" ]))
    ~claims:
      [
        claim "E12.bounded-delay"
          "every delivery respects the finite delay bound delta"
          (all_yes_opt (fun (delta, v) -> Option.map (bounded delta) v) rows);
        claim "E12.disagreement"
          "executions still disagree under semi-synchrony (impossibility)"
          (all_yes_opt
             (fun (_, v) ->
               Option.map (fun v -> v.Partition.disagreement) v)
             rows);
      ]

(* ------------------------------------------------------------------ *)
(* E13: the attack matrix — every implemented adversary against the     *)
(* algorithm it targets, at full density f = (n-1)/3                    *)
(* ------------------------------------------------------------------ *)

let e13 =
  v "E13" "attack matrix" @@ fun ctx ->
  (* Each matrix entry is one independent run, so each becomes one pool
     cell producing its row; [pool] keeps the written order. *)
  let row alg adv prop ok = (alg, adv, prop, ok) in
  let n = 10 in
  let f = 3 in
  (* consensus *)
  let cons byz name () =
    let s =
      Scenarios.Consensus_int.run ~byz ~n_correct:(n - List.length byz)
        ~inputs:(fun i -> i mod 2)
        ()
    in
    row "consensus" name "agreement" (s.all_terminated && s.agreed)
  in
  (* binary consensus *)
  let bc byz name () =
    let s =
      Scenarios.Binary.run ~byz ~n_correct:(n - List.length byz)
        ~inputs:(fun i -> i mod 2 = 0)
        ()
    in
    row "binary-consensus" name "agreement+strong-validity"
      (s.all_terminated && s.agreed && s.valid)
  in
  (* approximate agreement *)
  let aa byz name () =
    let s =
      Scenarios.Aa.run ~byz ~n_correct:(n - List.length byz)
        ~inputs:(fun i -> float_of_int (10 * i))
        ()
    in
    row "approx-agreement" name "containment+halving"
      (s.within_range && s.contraction <= 0.5 +. 1e-9)
  in
  let module Ca = Scenarios.Consensus_int.Attacks in
  let cells =
    [
      cons (List.init f (fun _ -> Strategy.silent)) "silent";
      cons (List.init f (fun _ -> Ca.silent_member)) "silent-member";
      cons (List.init f (fun _ -> Ca.split_world 0 1)) "split-world";
      cons (List.init f (fun i -> Ca.stubborn i)) "stubborn";
      cons (List.init f (fun i -> Ca.half_stubborn i)) "half-stubborn";
      cons (List.init f (fun _ -> Ubpa_adversary.Generic.mirror)) "mirror";
      cons
        (List.init f (fun _ -> Ubpa_adversary.Generic.split_mirror))
        "split-mirror";
      cons (List.init f (fun _ -> Ubpa_adversary.Generic.spam)) "spam";
      cons
        (List.init f (fun _ -> Ubpa_adversary.Generic.random_mix))
        "random-mix";
      cons
        (List.init f (fun _ -> Ubpa_adversary.Generic.crash_after 6))
        "crash-after-6";
      cons
        (List.init f (fun _ -> Ubpa_adversary.Generic.replay ~delay:2))
        "replay-2";
      cons
        (List.init f (fun i ->
             Ubpa_adversary.Combinators.switch_at ~round:8
               Ubpa_adversary.Generic.mirror (Ca.split_world (i mod 2) 1)))
        "turncoat";
      bc
        (List.init f (fun _ -> Ubpa_adversary.Bc_attacks.split_world))
        "split-world";
      bc (List.init f (fun _ -> Ubpa_adversary.Bc_attacks.stubborn true)) "stubborn";
      aa
        (List.init f (fun _ ->
             Ubpa_adversary.Aa_attacks.pull_apart ~low:(-1e6) ~high:1e6))
        "pull-apart";
      aa (List.init f (fun _ -> Ubpa_adversary.Aa_attacks.outlier 1e9)) "outlier";
      aa
        (List.init f (fun _ -> Ubpa_adversary.Aa_attacks.tracker ~offset:5.))
        "tracker";
      (* reliable broadcast *)
      (fun () ->
        let claimed = List.hd (Scenarios.make_ids ~seed:1L (n - f)) in
        let rb =
          Scenarios.Rb.run
            ~byz:
              (List.init f (fun _ ->
                   Scenarios.Rb.Attacks.forging_echoer "x" ~claimed))
            ~n_correct:(n - f) ~payload:"real" ()
        in
        row "reliable-broadcast" "forging-echoer" "unforgeability"
          (List.for_all
             (fun (_, entries) ->
               not (List.exists (fun (m, _, _) -> m = "x") entries))
             rb.accepted));
      (fun () ->
        let rb2 =
          Scenarios.Rb.run
            ~byz:
              (Scenarios.Rb.Attacks.equivocating_sender "m1" "m2"
              :: List.init (f - 1) (fun _ -> Strategy.silent))
            ~byz_sender:true ~n_correct:(n - f) ~payload:"m1" ()
        in
        row "reliable-broadcast" "equivocating-sender" "all-or-none"
          rb2.consistent_acceptance);
      (* rotor *)
      (fun () ->
        let rot =
          Scenarios.Rotor_int.run
            ~byz:
              (List.init f (fun i ->
                   Scenarios.Rotor_int.Attacks.staggered_announcer
                     ~fraction:(0.34 +. (0.08 *. float_of_int i))))
            ~n_correct:(n - f) ()
        in
        row "rotor" "staggered-announcer" "good round"
          (rot.all_terminated && rot.good_round_exists));
      (* parallel consensus *)
      (fun () ->
        let pc =
          Scenarios.Parallel_int.run
            ~byz:
              [
                Scenarios.Parallel_int.Attacks.ghost_instance ~id:99 1;
                Scenarios.Parallel_int.Attacks.split_instance ~id:1 0 1;
                Strategy.silent;
              ]
            ~n_correct:(n - 3)
            ~inputs:(fun _ -> [ (1, 7) ])
            ()
        in
        row "parallel-consensus" "ghost+split+silent" "pair-set agreement"
          (pc.all_terminated && pc.agreed));
      (* renaming *)
      (fun () ->
        let rn =
          Scenarios.Renaming_run.run
            ~byz:
              [
                Ubpa_adversary.Rename_attacks.partial_announcer ~fraction:0.5;
                Ubpa_adversary.Rename_attacks.vote_rusher;
                Ubpa_adversary.Rename_attacks.churning_candidate;
              ]
            ~n_correct:(n - 3) ()
        in
        row "renaming" "partial+rusher+churn" "consistent dense names"
          (rn.all_terminated && rn.consistent && rn.names_are_dense));
    ]
  in
  let rows = pool ctx cells (fun cell -> [ cell () ]) in
  outcome rows
    ~title:
      "E13: attack matrix (n = 10, f = 3 unless noted) — key safety property \
       per adversary"
    ~columns:[ "algorithm"; "adversary"; "property"; "holds" ]
    ~render:(fun (alg, adv, prop, ok) -> [ alg; adv; prop; bool_cell ok ])
    ~claims:
      [
        claim "E13.safety-matrix"
          "every implemented adversary fails to break its target property"
          (all_yes (fun (_, _, _, ok) -> ok) rows);
      ]

(* ------------------------------------------------------------------ *)
(* A1: rotor ablation — n > 4f vs n > 3f densities                      *)
(* ------------------------------------------------------------------ *)

let a1 =
  v "A1" "rotor density ablation" @@ fun ctx ->
  let rows =
    pool ctx
      [
        ("n>4f", 9, 2);
        ("n>3f", 7, 2);
        ("n>4f", 17, 4);
        ("n>3f", 13, 4);
        ("n>4f", 25, 6);
        ("n>3f", 19, 6);
      ]
      (fun (label, n, f) ->
        let byz =
          List.init f (fun i ->
              Scenarios.Rotor_int.Attacks.staggered_announcer
                ~fraction:(0.34 +. (0.05 *. float_of_int (i mod 6))))
        in
        let s = Scenarios.Rotor_int.run ~byz ~n_correct:(n - f) () in
        [ (label, n, f, max_of s.termination_rounds, s.good_round_exists) ])
  in
  outcome rows ~title:"A1 (ablation): rotor at fault densities n>4f vs n>3f"
    ~columns:[ "density"; "n"; "f"; "rounds(max)"; "good round" ]
    ~render:(fun (label, n, f, rmax, good) ->
      [
        label; Table.cell_int n; Table.cell_int f; Table.cell_int rmax;
        bool_cell good;
      ])
    ~claims:
      [
        claim "A1.good-round"
          "rotor finds a good round at both n>4f and n>3f densities"
          (all_yes (fun (_, _, _, _, good) -> good) rows);
      ]

(* ------------------------------------------------------------------ *)
(* A2: AA discard-rule ablation when f is misestimated                  *)
(* ------------------------------------------------------------------ *)

let dolev_under_attack ~n_correct ~byz_count ~assumed_f =
  match
    dolev_outputs ~seed:74L ~n_correct ~byz_count ~f:assumed_f ~iterations:1
  with
  | [] -> false
  | outs ->
      let lo, hi = Stats.min_max outs in
      let i_hi = float_of_int (10 * (n_correct - 1)) in
      lo >= 0. && hi <= i_hi

let a2 =
  v "A2" "discard-rule ablation" @@ fun ctx ->
  let n_correct = 7 in
  (* (actual f, assumed f — [None] for the id-only rule, in range) *)
  let rows =
    pool ctx [ 1; 2; 3 ] (fun actual_f ->
        let byz =
          List.init actual_f (fun _ ->
              Ubpa_adversary.Aa_attacks.pull_apart ~low:(-1e6) ~high:1e6)
        in
        let ours =
          Scenarios.Aa.run ~byz ~n_correct
            ~inputs:(fun i -> float_of_int (10 * i))
            ()
        in
        (actual_f, None, ours.within_range)
        :: List.map
             (fun assumed_f ->
               ( actual_f,
                 Some assumed_f,
                 dolev_under_attack ~n_correct ~byz_count:actual_f ~assumed_f ))
             [ actual_f; max 0 (actual_f - 1) ])
  in
  outcome rows
    ~title:
      "A2 (ablation): discard rule under extreme-value attack when f is \
       misestimated"
    ~columns:[ "rule"; "actual f"; "assumed f"; "in-range" ]
    ~render:(fun (actual_f, assumed, ok) ->
      [
        (if assumed = None then "id-only n_v/3" else "known-f");
        Table.cell_int actual_f;
        (match assumed with None -> "-" | Some a -> Table.cell_int a);
        bool_cell ok;
      ])
    ~claims:
      [
        claim "A2.id-only-robust"
          "the relative n_v/3 discard rule stays in range without knowing f"
          (List.for_all (fun (_, assumed, ok) -> assumed <> None || ok) rows);
        claim "A2.known-f-fragile"
          "underestimating f breaks the known-f discard rule"
          (List.exists (fun (_, assumed, ok) -> assumed <> None && not ok) rows);
      ]

(* ------------------------------------------------------------------ *)
(* A3: appendix algorithms — terminating RB and renaming                *)
(* ------------------------------------------------------------------ *)

let a3 =
  v "A3" "appendix algorithms" @@ fun ctx ->
  let rows =
    pool ctx [ 0; 1; 2; 3; 4 ] (fun f ->
        let n_correct = (2 * f) + 2 in
        let trb =
          Scenarios.Trb_str.run
            ~byz:(List.init f (fun _ -> Strategy.silent))
            ~n_correct ~payload:"m" ()
        in
        let rn =
          Scenarios.Renaming_run.run
            ~byz:(List.init f (fun _ -> Strategy.silent))
            ~n_correct ()
        in
        [
          ( "terminating-rb",
            trb.n,
            trb.f,
            trb.rounds,
            trb.agreed && trb.all_terminated );
          ("renaming", rn.n, rn.f, rn.rounds, rn.consistent && rn.names_are_dense);
        ])
  in
  outcome rows ~title:"A3: appendix algorithms (terminating RB, renaming)"
    ~columns:[ "algorithm"; "n"; "f"; "rounds"; "correct" ]
    ~render:(fun (alg, n, f, rounds, ok) ->
      [ alg; Table.cell_int n; Table.cell_int f; Table.cell_int rounds; bool_cell ok ])
    ~claims:
      [
        claim "A3.correct" "terminating RB and renaming are correct at every f"
          (all_yes (fun (_, _, _, _, ok) -> ok) rows);
        claim "A3.constant-rounds"
          "both appendix algorithms finish within 10 rounds"
          (List.for_all (fun (_, _, _, rounds, _) -> rounds <= 10) rows);
      ]

(* ------------------------------------------------------------------ *)
(* A4: rotor-driven binary consensus (strong validity, O(n) rounds)    *)
(* ------------------------------------------------------------------ *)

let a4 =
  v "A4" "binary consensus" @@ fun ctx ->
  let rows =
    pool ctx (f_sweep ctx) (fun f ->
        let n = (3 * f) + 1 in
        List.map
          (fun (label, byz) ->
            ( label,
              Scenarios.Binary.run ~byz ~n_correct:(n - List.length byz)
                ~inputs:(fun i -> i mod 2 = 0)
                () ))
          [
            ("none", []);
            ( "split-world",
              List.init f (fun _ -> Ubpa_adversary.Bc_attacks.split_world) );
            ( "stubborn",
              List.init f (fun _ -> Ubpa_adversary.Bc_attacks.stubborn true) );
          ])
  in
  outcome rows
    ~title:
      "A4: rotor-driven binary consensus — strong validity at O(n) rounds vs \
       Algorithm 3's O(f)"
    ~columns:[ "n"; "f"; "adversary"; "rounds"; "agreed"; "strong-valid"; "msgs" ]
    ~render:(fun (label, (s : Scenarios.Binary.summary)) ->
      [
        Table.cell_int s.n;
        Table.cell_int s.f;
        label;
        Table.cell_int s.rounds;
        bool_cell s.agreed;
        bool_cell s.valid;
        Table.cell_int s.delivered_msgs;
      ])
    ~claims:
      [
        claim "A4.agreement" "agreement and strong validity hold"
          (all_yes (fun (_, s) -> s.Scenarios.Binary.agreed) rows
          && all_yes (fun (_, s) -> s.Scenarios.Binary.valid) rows);
        claim "A4.round-linear" "rounds stay within 8*n+8 (O(n))"
          (List.for_all
             (fun (_, (s : Scenarios.Binary.summary)) ->
               s.rounds <= (8 * s.n) + 8)
             rows);
      ]

let all =
  [
    e1; e2; e2b; e3; e4; e5; e5b; e6; e7; e8; e8b; e9; e10; e11; e12; e13;
    a1; a2; a3; a4;
  ]
