(* ubpa — drive the paper's algorithms from the command line.

   Examples:
     ubpa consensus -n 10 -f 3 --adversary split-world
     ubpa rb -n 7 -f 2 --adversary equivocate
     ubpa rotor -n 13 -f 4 --adversary staggered
     ubpa aa -n 10 -f 3 --iterations 6
     ubpa parallel -n 7 -f 2 --instances 4
     ubpa rename -n 9 -f 2
     ubpa trb -n 7 -f 2 --byzantine-sender
     ubpa order --genesis 4 --rounds 8
     ubpa impossibility --mode semisync --delta 64 *)

open Cmdliner
open Ubpa_scenarios
open Ubpa_sim

let seed_t =
  let doc = "Seed for the deterministic simulation." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let n_t =
  let doc = "Total number of nodes (correct + byzantine)." in
  Arg.(value & opt int 7 & info [ "n" ] ~docv:"N" ~doc)

let f_t =
  let doc = "Number of byzantine nodes (must satisfy n > 3f)." in
  Arg.(value & opt int 2 & info [ "f" ] ~docv:"F" ~doc)

let adversary_t choices =
  let doc =
    Printf.sprintf "Byzantine strategy: %s."
      (String.concat ", " (List.map fst choices))
  in
  Arg.(
    value
    & opt (enum choices) (snd (List.hd choices))
    & info [ "adversary" ] ~docv:"STRATEGY" ~doc)

(* Every command that takes -n and -f validates them here: a population
   no run can be built from is a usage error (exit 2). *)
let valid_nf n f =
  if n < 1 || f < 0 || f >= n then begin
    Fmt.epr "ubpa: need n >= 1 and 0 <= f < n, got n = %d, f = %d@." n f;
    exit 2
  end

(* The simulator commands also warn outside the paper's bound. *)
let check_nf n f =
  valid_nf n f;
  if n <= 3 * f then
    Fmt.epr
      "warning: n = %d, f = %d violates n > 3f; the guarantees of the paper \
       do not apply.@."
      n f

let i64 seed = Int64.of_int seed

(* ----- consensus ----- *)

let consensus_cmd =
  let run n f seed adversary =
    check_nf n f;
    let module C = Scenarios.Consensus_int in
    let byz = List.init f (fun i -> adversary i) in
    let s =
      C.run ~seed:(i64 seed) ~byz ~n_correct:(n - f)
        ~inputs:(fun i -> i mod 2)
        ()
    in
    Fmt.pr "n=%d f=%d rounds=%d msgs=%d@." s.C.n s.C.f s.C.rounds
      s.C.delivered_msgs;
    List.iter
      (fun (id, v) -> Fmt.pr "  %a -> %d@." Ubpa_util.Node_id.pp id v)
      s.C.outputs;
    Fmt.pr "agreement=%b unanimity-validity=%b@." s.C.agreed s.C.valid;
    if not s.C.agreed then exit 1
  in
  let adversaries =
    [
      ("split-world", fun _ -> Scenarios.Consensus_int.Attacks.split_world 0 1);
      ("stubborn", fun _ -> Scenarios.Consensus_int.Attacks.stubborn 9);
      ("silent", fun _ -> Scenarios.Consensus_int.Attacks.silent_member);
      ("mirror", fun _ -> Ubpa_adversary.Generic.mirror);
      ("spam", fun _ -> Ubpa_adversary.Generic.spam);
      ("random", fun _ -> Ubpa_adversary.Generic.random_mix);
    ]
  in
  Cmd.v
    (Cmd.info "consensus" ~doc:"Early-terminating consensus (Algorithm 3)")
    Term.(const run $ n_t $ f_t $ seed_t $ adversary_t adversaries)


(* ----- binary consensus ----- *)

let binary_cmd =
  let run n f seed adversary =
    check_nf n f;
    let module B = Scenarios.Binary in
    let byz = List.init f (fun i -> adversary i) in
    let s =
      B.run ~seed:(i64 seed) ~byz ~n_correct:(n - f)
        ~inputs:(fun i -> i mod 2 = 0)
        ()
    in
    Fmt.pr "n=%d f=%d rounds=%d msgs=%d@." s.B.n s.B.f s.B.rounds
      s.B.delivered_msgs;
    List.iter
      (fun (id, v) -> Fmt.pr "  %a -> %b@." Ubpa_util.Node_id.pp id v)
      s.B.outputs;
    Fmt.pr "agreement=%b strong-validity=%b@." s.B.agreed s.B.valid;
    if not s.B.agreed then exit 1
  in
  let adversaries =
    [
      ("split-world", fun _ -> Ubpa_adversary.Bc_attacks.split_world);
      ("stubborn", fun _ -> Ubpa_adversary.Bc_attacks.stubborn true);
      ("silent", fun _ -> Ubpa_adversary.Bc_attacks.silent_member);
    ]
  in
  Cmd.v
    (Cmd.info "binary"
       ~doc:"Rotor-driven binary consensus (the paper's original algorithm)")
    Term.(const run $ n_t $ f_t $ seed_t $ adversary_t adversaries)

(* ----- reliable broadcast ----- *)

let rb_cmd =
  let run n f seed adversary =
    check_nf n f;
    let module R = Scenarios.Rb in
    let byz_sender = adversary == `Equivocate || adversary == `Partial in
    let byz =
      match adversary with
      | `Silent -> List.init f (fun _ -> Strategy.silent)
      | `Equivocate ->
          R.Attacks.equivocating_sender "m1" "m2"
          :: List.init (max 0 (f - 1)) (fun _ -> Strategy.silent)
      | `Partial ->
          R.Attacks.partial_sender "m" ~fraction:0.4
          :: List.init (max 0 (f - 1)) (fun _ -> Strategy.silent)
      | `None -> []
    in
    let s =
      R.run ~seed:(i64 seed) ~byz ~byz_sender
        ~n_correct:(n - List.length byz) ~payload:"m" ()
    in
    Fmt.pr "n=%d f=%d rounds=%d msgs=%d@." s.R.n s.R.f s.R.rounds
      s.R.delivered_msgs;
    List.iter
      (fun (id, entries) ->
        Fmt.pr "  %a accepted %d payload(s)@." Ubpa_util.Node_id.pp id
          (List.length entries))
      s.R.accepted;
    Fmt.pr "designated payload accepted everywhere=%b (rounds %d..%d)@."
      s.R.all_accepted_sender_payload s.R.min_accept_round s.R.max_accept_round
  in
  let adversaries =
    [
      ("none", `None);
      ("silent", `Silent);
      ("equivocate", `Equivocate);
      ("partial", `Partial);
    ]
  in
  Cmd.v
    (Cmd.info "rb" ~doc:"Reliable broadcast (Algorithm 1)")
    Term.(const run $ n_t $ f_t $ seed_t $ adversary_t adversaries)

(* ----- rotor ----- *)

let rotor_cmd =
  let run n f seed adversary =
    check_nf n f;
    let module R = Scenarios.Rotor_int in
    let byz =
      match adversary with
      | `Silent -> List.init f (fun _ -> Strategy.silent)
      | `Staggered ->
          List.init f (fun i ->
              R.Attacks.staggered_announcer
                ~fraction:(0.34 +. (0.07 *. float_of_int (i mod 5))))
      | `None -> []
    in
    let s = R.run ~seed:(i64 seed) ~byz ~n_correct:(n - List.length byz) () in
    Fmt.pr "n=%d f=%d rounds=%d msgs=%d terminated=%b@." s.R.n s.R.f s.R.rounds
      s.R.delivered_msgs s.R.all_terminated;
    (match s.R.outputs with
    | (_, o) :: _ ->
        Fmt.pr "coordinator schedule (first node):@.";
        List.iter
          (fun (r, c) -> Fmt.pr "  rotor round %d: %a@." r Ubpa_util.Node_id.pp c)
          o.R.P.selections
    | [] -> ());
    Fmt.pr "good round (common correct coordinator)=%b@." s.R.good_round_exists;
    if not s.R.good_round_exists then exit 1
  in
  let adversaries =
    [ ("none", `None); ("silent", `Silent); ("staggered", `Staggered) ]
  in
  Cmd.v
    (Cmd.info "rotor" ~doc:"Rotor-coordinator (Algorithm 2)")
    Term.(const run $ n_t $ f_t $ seed_t $ adversary_t adversaries)

(* ----- approximate agreement ----- *)

let aa_cmd =
  let iterations_t =
    Arg.(value & opt int 4 & info [ "iterations" ] ~docv:"K" ~doc:"Iterations.")
  in
  let run n f seed iterations adversary =
    check_nf n f;
    let module A = Scenarios.Aa in
    let byz =
      match adversary with
      | `Pull -> List.init f (fun _ -> Ubpa_adversary.Aa_attacks.pull_apart ~low:(-1e6) ~high:1e6)
      | `Outlier -> List.init f (fun _ -> Ubpa_adversary.Aa_attacks.outlier 1e9)
      | `Silent -> List.init f (fun _ -> Strategy.silent)
      | `None -> []
    in
    let s =
      A.run ~seed:(i64 seed) ~byz ~iterations ~n_correct:(n - List.length byz)
        ~inputs:(fun i -> float_of_int (10 * i))
        ()
    in
    List.iter
      (fun (id, v) -> Fmt.pr "  %a -> %.6f@." Ubpa_util.Node_id.pp id v)
      s.A.outputs;
    let ilo, ihi = s.A.input_range and olo, ohi = s.A.output_range in
    Fmt.pr "input range [%.1f, %.1f] output range [%.4f, %.4f]@." ilo ihi olo
      ohi;
    Fmt.pr "within-range=%b contraction=%.6f (bound %.6f)@." s.A.within_range
      s.A.contraction
      (0.5 ** float_of_int iterations);
    if not s.A.within_range then exit 1
  in
  let adversaries =
    [ ("none", `None); ("pull-apart", `Pull); ("outlier", `Outlier); ("silent", `Silent) ]
  in
  Cmd.v
    (Cmd.info "aa" ~doc:"Approximate agreement (Algorithm 4)")
    Term.(const run $ n_t $ f_t $ seed_t $ iterations_t $ adversary_t adversaries)

(* ----- parallel consensus ----- *)

let parallel_cmd =
  let instances_t =
    Arg.(
      value & opt int 3
      & info [ "instances" ] ~docv:"K" ~doc:"Instances per node.")
  in
  let run n f seed instances =
    check_nf n f;
    let module P = Scenarios.Parallel_int in
    let byz =
      if f = 0 then []
      else
        P.Attacks.ghost_instance ~id:999 1
        :: List.init (f - 1) (fun _ -> Strategy.silent)
    in
    let s =
      P.run ~seed:(i64 seed) ~byz ~n_correct:(n - List.length byz)
        ~inputs:(fun _ -> List.init instances (fun j -> (j, 10 * j)))
        ()
    in
    Fmt.pr "n=%d f=%d rounds=%d msgs=%d@." s.P.n s.P.f s.P.rounds
      s.P.delivered_msgs;
    (match s.P.outputs with
    | (_, pairs) :: _ ->
        List.iter (fun (id, v) -> Fmt.pr "  instance %d -> %d@." id v) pairs
    | [] -> ());
    Fmt.pr "agreement=%b (byzantine ghost instance 999 suppressed)@." s.P.agreed;
    if not s.P.agreed then exit 1
  in
  Cmd.v
    (Cmd.info "parallel" ~doc:"Parallel consensus (Algorithm 5)")
    Term.(const run $ n_t $ f_t $ seed_t $ instances_t)

(* ----- renaming ----- *)

let rename_cmd =
  let run n f seed =
    check_nf n f;
    let module R = Scenarios.Renaming_run in
    let s =
      R.run ~seed:(i64 seed)
        ~byz:(List.init f (fun _ -> Strategy.silent))
        ~n_correct:(n - f) ()
    in
    Fmt.pr "n=%d f=%d rounds=%d@." s.R.n s.R.f s.R.rounds;
    (match s.R.outputs with
    | (_, (o : Unknown_ba.Renaming.output)) :: _ ->
        List.iter
          (fun (id, rank) ->
            Fmt.pr "  %a -> name %d@." Ubpa_util.Node_id.pp id rank)
          o.names
    | [] -> ());
    Fmt.pr "consistent=%b dense=%b@." s.R.consistent s.R.names_are_dense;
    if not s.R.consistent then exit 1
  in
  Cmd.v
    (Cmd.info "rename" ~doc:"Byzantine renaming (appendix)")
    Term.(const run $ n_t $ f_t $ seed_t)

(* ----- terminating reliable broadcast ----- *)

let trb_cmd =
  let byz_sender_t =
    Arg.(
      value & flag
      & info [ "byzantine-sender" ]
          ~doc:"Make the designated sender byzantine (and silent).")
  in
  let run n f seed byz_sender =
    check_nf n f;
    let module T = Scenarios.Trb_str in
    let s =
      T.run ~seed:(i64 seed)
        ~byz:(List.init (max f (if byz_sender then 1 else 0)) (fun _ -> Strategy.silent))
        ~byz_sender ~n_correct:(n - max f (if byz_sender then 1 else 0))
        ~payload:"hello" ()
    in
    Fmt.pr "n=%d f=%d rounds=%d@." s.T.n s.T.f s.T.rounds;
    List.iter
      (fun (id, o) ->
        Fmt.pr "  %a -> %a@." Ubpa_util.Node_id.pp id
          Fmt.(option ~none:(any "(empty)") string)
          o)
      s.T.outputs;
    Fmt.pr "agreement=%b@." s.T.agreed;
    if not s.T.agreed then exit 1
  in
  Cmd.v
    (Cmd.info "trb" ~doc:"Terminating reliable broadcast (appendix)")
    Term.(const run $ n_t $ f_t $ seed_t $ byz_sender_t)

(* ----- total order ----- *)

let order_cmd =
  let genesis_t =
    Arg.(value & opt int 4 & info [ "genesis" ] ~docv:"G" ~doc:"Genesis nodes.")
  in
  let rounds_t =
    Arg.(
      value & opt int 8
      & info [ "rounds" ] ~docv:"R" ~doc:"Rounds of event submission.")
  in
  let run seed genesis rounds =
    let module T = Scenarios.Total_order_str in
    let s =
      T.run ~seed:(i64 seed) ~n_genesis:genesis ~rounds ~events_per_round:1 ()
    in
    Fmt.pr "rounds=%d events=%d msgs=%d@." s.T.rounds s.T.events_submitted
      s.T.delivered_msgs;
    (match s.T.chains with
    | (_, (o : T.P.chain_output)) :: _ ->
        List.iteri
          (fun i (e : T.P.chain_entry) ->
            Fmt.pr "  %2d. [r%d] %s@." (i + 1) e.group e.event)
          o.chain
    | [] -> ());
    Fmt.pr "chain-prefix=%b@." s.T.prefix_consistent;
    if not s.T.prefix_consistent then exit 1
  in
  Cmd.v
    (Cmd.info "order" ~doc:"Dynamic total ordering (Algorithm 6)")
    Term.(const run $ seed_t $ genesis_t $ rounds_t)


(* ----- message-level trace ----- *)

(* Offline analyses over a parsed JSONL trace (ubpa trace --file). Each is
   a pure function of the event list, so they compose: --summarize
   --per-round --top-senders 3 prints all three reports in order. *)

let trace_summarize (events : Trace.event list) =
  let rounds = List.fold_left (fun acc (e : Trace.event) -> max acc e.round) 0 events in
  let nodes =
    List.sort_uniq compare
      (List.filter_map (fun (e : Trace.event) -> e.node) events)
  in
  let per_kind = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      let k = Trace.kind_to_string e.kind in
      Hashtbl.replace per_kind k
        (1 + Option.value ~default:0 (Hashtbl.find_opt per_kind k)))
    events;
  Fmt.pr "%d events, rounds 1..%d, %d distinct nodes@." (List.length events)
    rounds (List.length nodes);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_kind []
  |> List.sort (fun (ka, a) (kb, b) -> compare (-a, ka) (-b, kb))
  |> List.iter (fun (k, v) -> Fmt.pr "  %-9s %d@." k v)

let trace_per_round (events : Trace.event list) =
  let rounds = List.fold_left (fun acc (e : Trace.event) -> max acc e.round) 0 events in
  Fmt.pr "%-6s %-7s %s@." "round" "events" "by kind";
  for r = 1 to rounds do
    let here = List.filter (fun (e : Trace.event) -> e.round = r) events in
    let per_kind = Hashtbl.create 8 in
    List.iter
      (fun (e : Trace.event) ->
        let k = Trace.kind_to_string e.kind in
        Hashtbl.replace per_kind k
          (1 + Option.value ~default:0 (Hashtbl.find_opt per_kind k)))
      here;
    let breakdown =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_kind []
      |> List.sort compare
      |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
      |> String.concat " "
    in
    Fmt.pr "r%-5d %-7d %s@." r (List.length here) breakdown
  done

let trace_top_senders k (events : Trace.event list) =
  let per_node = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      match (e.kind, e.node) with
      | (Trace.Send | Trace.Byz_send), Some id ->
          Hashtbl.replace per_node id
            (1 + Option.value ~default:0 (Hashtbl.find_opt per_node id))
      | _ -> ())
    events;
  let ranked =
    Hashtbl.fold (fun id v acc -> (id, v) :: acc) per_node []
    |> List.sort (fun (ia, a) (ib, b) -> compare (-a, ia) (-b, ib))
  in
  Fmt.pr "top senders (send + byz-send events):@.";
  List.iteri
    (fun i (id, v) ->
      if i < k then Fmt.pr "  %2d. %a  %d sends@." (i + 1) Ubpa_util.Node_id.pp id v)
    ranked

let trace_grep kind_str (events : Trace.event list) =
  match Trace.kind_of_string kind_str with
  | None ->
      Fmt.epr "unknown event kind %S (try: join, leave, send, byz-send, \
               output, halt, fault, engine)@."
        kind_str;
      exit 1
  | Some kind ->
      List.iter
        (fun (e : Trace.event) ->
          if e.kind = kind then
            Fmt.pr "r%03d %a %s@." e.round
              Fmt.(option ~none:(any "(engine)  ") Ubpa_util.Node_id.pp)
              e.node e.what)
        events

let trace_pp_event ppf (e : Trace.event) =
  Fmt.pf ppf "round %d %s%s: %s" e.Trace.round
    (Trace.kind_to_string e.Trace.kind)
    (match e.Trace.node with
    | None -> ""
    | Some id -> Fmt.str " %a" Ubpa_util.Node_id.pp id)
    e.Trace.what

(* A recorded JSONL trace; a file that cannot be read or parsed exits 1. *)
let load_trace path =
  let contents =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg ->
      Fmt.epr "%s@." msg;
      exit 1
  in
  match Trace.of_jsonl contents with
  | Ok events -> events
  | Error msg ->
      Fmt.epr "%s: %s@." path msg;
      exit 1

(* ubpa trace --diff A.jsonl B.jsonl: first divergent event + per-kind
   count deltas, nonzero exit on divergence — the offline face of the
   Trace.diff_events primitive the runtime's oracle gate uses. *)
let trace_diff path_a path_b =
  let a = load_trace path_a and b = load_trace path_b in
  let d = Trace.diff_events a b in
  Fmt.pr "%s: %d event(s)@.%s: %d event(s)@." path_a d.Trace.length_a path_b
    d.Trace.length_b;
  let deltas =
    List.filter (fun (_, ca, cb) -> ca <> cb) d.Trace.kind_counts
  in
  if deltas <> [] then begin
    Fmt.pr "per-kind deltas:@.";
    List.iter
      (fun (k, ca, cb) -> Fmt.pr "  %-8s %d vs %d (%+d)@." k ca cb (cb - ca))
      deltas
  end;
  match d.Trace.first_divergence with
  | None -> Fmt.pr "traces are identical@."
  | Some (i, ea, eb) ->
      let side ppf = function
        | Some e -> trace_pp_event ppf e
        | None -> Fmt.pf ppf "(stream ended)"
      in
      Fmt.pr "first divergence at event %d:@.  A: %a@.  B: %a@." i side ea
        side eb;
      exit 1

let trace_cmd =
  let timeline_t =
    Arg.(
      value & flag
      & info [ "timeline" ]
          ~doc:"Render an ASCII per-node round timeline instead of a live \
                event stream.")
  in
  let file_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:
            "Analyze a JSONL trace file (one event object per line, as \
             written by the bench pipeline's TRACE_CX1.jsonl) instead of \
             running a live demo.")
  in
  let summarize_t =
    Arg.(
      value & flag
      & info [ "summarize" ]
          ~doc:"With --file: print event totals, round span, and a per-kind \
                breakdown.")
  in
  let per_round_t =
    Arg.(
      value & flag
      & info [ "per-round" ]
          ~doc:"With --file: print a round-by-round event count with a \
                per-kind breakdown.")
  in
  let top_senders_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "top-senders" ] ~docv:"K"
          ~doc:"With --file: rank nodes by send events and print the top K.")
  in
  let grep_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "grep" ] ~docv:"KIND"
          ~doc:
            "With --file: print only events of this kind (join, leave, \
             send, byz-send, output, halt, fault, engine).")
  in
  let diff_t =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Compare two JSONL traces given as positional arguments: report \
             per-kind count deltas and the first divergent event; exit \
             nonzero on divergence.")
  in
  let files_t =
    Arg.(value & pos_all string [] & info [] ~docv:"FILE")
  in
  let run n f seed timeline file summarize per_round top_senders grep diff
      files =
    if diff then begin
      match files with
      | [ a; b ] -> trace_diff a b
      | _ ->
          Fmt.epr "ubpa trace --diff needs exactly two trace files@.";
          exit 2
    end
    else
    match file with
    | Some path ->
        (* Offline mode: no simulation, just the recorded events. *)
        let events = load_trace path in
        let analyses =
          List.concat
            [
              (if summarize then [ fun () -> trace_summarize events ] else []);
              (if per_round then [ fun () -> trace_per_round events ] else []);
              (match top_senders with
              | Some k -> [ (fun () -> trace_top_senders k events) ]
              | None -> []);
              (match grep with
              | Some kind -> [ (fun () -> trace_grep kind events) ]
              | None -> []);
            ]
        in
        if analyses = [] then
          (* Default view: the round timeline. *)
          Fmt.pr "%s@." (Timeline.to_string (Timeline.of_events events))
        else
          List.iteri
            (fun i analyze ->
              if i > 0 then Fmt.pr "@.";
              analyze ())
            analyses
    | None ->
        check_nf n f;
        (* A small consensus run with the engine's live trace enabled: every
           send, output, and halt is printed as it happens. *)
        let module C = Unknown_ba.Consensus.Make (Unknown_ba.Value.Int) in
        let module H = Ubpa_harness.Harness.Make (C) in
        let module A =
          Ubpa_adversary.Consensus_attacks.Make (Unknown_ba.Value.Int)
        in
        let correct_ids, byz_ids =
          Ubpa_harness.Harness.split_population ~seed:(i64 seed)
            ~n_correct:(n - f) ~n_byz:f
        in
        let correct = List.mapi (fun i id -> (id, i mod 2)) correct_ids in
        let byzantine = List.map (fun id -> (id, A.split_world 0 1)) byz_ids in
        let trace = Trace.create ~live:(not timeline) () in
        let o = H.execute ~trace ~max_rounds:200 ~correct ~byzantine () in
        let stalled =
          match o.H.finished with
          | `All_halted | `Stopped -> []
          | `Max_rounds_reached stalled ->
              Fmt.epr "did not terminate@.";
              stalled
          | `No_correct_nodes -> assert false
        in
        let m = o.H.metrics in
        if timeline then
          Fmt.pr "%s@."
            (Timeline.to_string ~stalled
               ~wire:(Metrics.wire_msgs m, Metrics.wire_bits m)
               (Timeline.of_trace trace))
        else begin
          Fmt.pr "@.%d trace events@." (List.length (Trace.events trace));
          Fmt.pr "wire: %d msgs, %d bits@." (Metrics.wire_msgs m)
            (Metrics.wire_bits m)
        end;
        Fmt.pr "decisions:@.";
        List.iter
          (fun (id, v) -> Fmt.pr "  %a -> %d@." Ubpa_util.Node_id.pp id v)
          o.H.outputs
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a small consensus with a live message-level trace or an \
             ASCII timeline, analyze a recorded JSONL trace (--file) with \
             --summarize, --per-round, --top-senders, --grep, or compare \
             two JSONL traces (--diff A.jsonl B.jsonl)")
    Term.(
      const run $ n_t $ f_t $ seed_t $ timeline_t $ file_t $ summarize_t
      $ per_round_t $ top_senders_t $ grep_t $ diff_t $ files_t)

(* ----- networked runtime ----- *)

(* ubpa run: drive a protocol from the runtime table (Runtime_runs) over
   actual concurrent per-node processes (lib/runtime) instead of the
   lockstep simulator, then hold the run to the simulator's verdict: the
   recorded delivery schedule must replay cleanly through the arena core,
   and decisions, decide rounds, trace events and wire accounting must
   match a fresh simulator run on the same population. With --faults the
   gate is graceful degradation instead. *)
let run_cmd =
  let runtime_t =
    Arg.(
      value
      & opt (enum [ ("domains", `Domains); ("socket", `Socket) ]) `Domains
      & info [ "runtime" ] ~docv:"TRANSPORT"
          ~doc:
            "Transport backend: domains (in-process mailboxes between \
             node threads) or socket (Unix-domain socketpairs with \
             length-prefixed framing).")
  in
  let protocol_t =
    Arg.(
      value
      & opt (enum (List.map (fun p -> (p, p)) Runtime_runs.protocols))
          "consensus"
      & info [ "protocol" ] ~docv:"P"
          ~doc:"Protocol to run: consensus or rb (reliable broadcast).")
  in
  let round_ms_t =
    Arg.(
      value & opt float 0.
      & info [ "round-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock round duration in milliseconds; 0 runs rounds flat \
             out.")
  in
  let max_rounds_t =
    Arg.(
      value & opt int 32
      & info [ "max-rounds" ] ~docv:"R"
          ~doc:
            "Stop after R rounds if the protocol has not halted (rb never \
             halts by design).")
  in
  let trace_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the networked run's trace as JSONL to $(docv) (same \
             vocabulary as the simulator's; analyze or compare with ubpa \
             trace).")
  in
  let faults_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Inject wire/process faults: comma-separated clauses over \
             0-based node positions in the seeded population — loss=P, \
             dup=P, crash:I@R, leave:I@R, send-omit:I@A..B=P, \
             recv-omit:I@A..B=P, delay:I@A..B=PxD. Example: \
             $(b,crash:1@3,delay:2@1..4=0.5x1,loss=0.05). Switches the \
             gate from exact lockstep equivalence to graceful \
             degradation (delivered-schedule oracle, monitors, survivor \
             agreement).")
  in
  let dead_after_t =
    Arg.(
      value & opt int 2
      & info [ "dead-after" ] ~docv:"K"
          ~doc:
            "Presume a peer dead after K consecutive silent deadline \
             rounds and stop waiting on it (needs --round-ms > 0).")
  in
  let expect_t =
    Arg.(
      value
      & opt (enum [ ("ok", `Ok); ("violation", `Violation) ]) `Ok
      & info [ "expect" ] ~docv:"WHAT"
          ~doc:
            "Expected verdict. $(b,ok) (default) exits 0 when every check \
             passes; $(b,violation) exits 0 when at least one fails — for \
             beyond-budget plans whose whole point is the counterexample.")
  in
  let comma_list pp xs = String.concat ", " (List.map (Fmt.str "%a" pp) xs) in
  let pp_crashed ppf (id, at) =
    Fmt.pf ppf "%a@r%d" Ubpa_util.Node_id.pp id at
  in
  let pp_dead ppf (observer, peer, at) =
    Fmt.pf ppf "%a saw %a dead r%d" Ubpa_util.Node_id.pp observer
      Ubpa_util.Node_id.pp peer at
  in
  let report ~n ~plan ~trace_out ~expect (s : Runtime_runs.summary) =
    let gate, passed =
      match plan with
      | None -> ("oracle", "equivalent to the simulator")
      | Some _ -> ("degradation", "degraded gracefully")
    in
    Fmt.pr "runtime=%s n=%d rounds=%d late-frames=%d frame-bytes=%d@."
      s.transport n s.rounds s.late s.frame_bytes;
    Option.iter
      (fun plan ->
        let inj = s.injected in
        Fmt.pr "fault plan: %a@." Ubpa_faults.pp plan;
        Fmt.pr "injected: lost=%d dup=%d delayed=%d@."
          inj.Ubpa_runtime.Transport_faulty.inj_lost inj.inj_dup
          inj.inj_delayed;
        if s.crashed <> [] then
          Fmt.pr "crashed: %s@." (comma_list pp_crashed s.crashed);
        if s.dead <> [] then
          Fmt.pr "presumed dead: %s@." (comma_list pp_dead s.dead))
      plan;
    Fmt.pr "wire: %d msgs, %d bits@." s.msgs s.bits;
    Fmt.pr "survivors: %d/%d, %d decided@." s.survivors n s.decided;
    Fmt.pr "%s checks:@." gate;
    List.iter
      (fun (c : Ubpa_harness.Runtime_exec.check) ->
        if c.c_ok then Fmt.pr "  %-18s ok@." c.c_name
        else Fmt.pr "  %-18s FAIL: %s@." c.c_name c.c_detail)
      s.checks;
    Option.iter
      (fun path ->
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc
              (Trace.to_jsonl (Trace.of_events s.events)));
        Fmt.pr "trace written to %s@." path)
      trace_out;
    Fmt.pr "decisions:@.";
    List.iter (Fmt.pr "  %s@.") s.decisions;
    (match (s.ok, expect) with
    | true, `Ok -> Fmt.pr "verdict: %s (as expected)@." passed
    | false, `Violation -> Fmt.pr "verdict: violation (as expected)@."
    | true, `Violation ->
        Fmt.pr "verdict: NO violation, but --expect violation@."
    | false, `Ok -> Fmt.pr "verdict: VIOLATION@.");
    if s.ok <> (expect = `Ok) then exit 1
  in
  let run runtime protocol n seed round_ms max_rounds trace_out faults
      dead_after expect =
    let ids = Ubpa_harness.Harness.make_ids ~seed:(i64 seed) n in
    let plan =
      Option.map
        (fun spec ->
          match Ubpa_faults.parse_spec ~ids spec with
          | Ok plan -> plan
          | Error e ->
              Fmt.epr "error: bad --faults spec: %s@." e;
              exit 2)
        faults
    in
    match
      (List.assoc protocol Runtime_runs.runners)
        ~transport:runtime ~round_ms ~max_rounds ?faults:plan
        ~fault_seed:(i64 seed) ~dead_after ids
    with
    | Error e ->
        Fmt.epr "error: %s@." e;
        exit 1
    | Ok s -> report ~n ~plan ~trace_out ~expect s
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a protocol on the networked runtime (one concurrent process \
          per node behind a transport) and check trace equivalence against \
          the lockstep simulator, or graceful degradation under --faults")
    Term.(
      const run $ runtime_t $ protocol_t $ n_t $ seed_t $ round_ms_t
      $ max_rounds_t $ trace_out_t $ faults_t $ dead_after_t $ expect_t)

(* ----- chaos sweep ----- *)

let chaos_cmd =
  let protocol_t =
    let doc =
      "Protocol to sweep: all, consensus, rb, or aa (default all)."
    in
    Arg.(
      value
      & opt (enum (("all", None) :: List.map (fun p -> (p, Some p)) Chaos_runs.protocols)) None
      & info [ "protocol" ] ~docv:"PROTOCOL" ~doc)
  in
  let budgets_t =
    let doc = "Fault budgets to sweep (victims per schedule)." in
    Arg.(
      value
      & opt (list int) Chaos_runs.default_budgets
      & info [ "budgets" ] ~docv:"B1,B2,.." ~doc)
  in
  let runs_t =
    let doc = "Randomized schedules per (protocol, budget) point." in
    Arg.(
      value
      & opt int Chaos_runs.default_seeds_per_budget
      & info [ "runs" ] ~docv:"K" ~doc)
  in
  let jobs_t =
    let doc =
      "Worker domains for the sweep (0 = all cores). The rows are \
       byte-identical at any value. Defaults to the UBPA_JOBS environment \
       variable, then 1."
    in
    Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let run protocol budgets runs jobs seed =
    let protocols =
      match protocol with None -> Chaos_runs.protocols | Some p -> [ p ]
    in
    let rows, records =
      Chaos_runs.sweep ?jobs ~protocols ~budgets ~seeds_per_budget:runs
        ~base_seed:(i64 seed) ()
    in
    Fmt.pr "%-10s %-7s %-9s %-5s %-9s %s@." "protocol" "budget" "envelope"
      "green" "violated" "sample violation";
    List.iter
      (fun (r : Ubpa_harness.Chaos.row) ->
        Fmt.pr "%-10s %-7d %-9s %d/%-3d %-9d %s@." r.protocol r.budget
          (if r.within then "inside" else "outside")
          r.green r.runs r.violated r.sample)
      rows;
    Fmt.pr "@.first violations:@.";
    let any = ref false in
    List.iter
      (fun (rec_ : Chaos_runs.run_record) ->
        match rec_.violation with
        | None -> ()
        | Some v ->
            any := true;
            Fmt.pr "  %-10s budget=%d seed=%Ld: %a@." rec_.protocol rec_.budget
              rec_.seed Ubpa_monitor.pp_violation v)
      records;
    if not !any then Fmt.pr "  (none — every monitor green)@.";
    Fmt.pr "@.";
    List.iter
      (fun p ->
        match Ubpa_harness.Chaos.max_green_budget ~rows ~protocol:p with
        | Some b -> Fmt.pr "%-10s max all-green budget: %d@." p b
        | None -> Fmt.pr "%-10s degraded at every swept budget@." p)
      protocols
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Seeded chaos sweep: randomized benign-fault schedules under \
             online safety monitors, per fault budget")
    Term.(const run $ protocol_t $ budgets_t $ runs_t $ jobs_t $ seed_t)

(* ----- committee agreement (sub-quadratic) ----- *)

let committee_cmd =
  let n_t =
    let doc =
      "Total population (correct + byzantine). The sampled committee has \
       ceil(2*sqrt(N)) members and every other node watches \
       max(3, 2*ceil(log2 N)) of them."
    in
    Arg.(value & opt int 101 & info [ "n" ] ~docv:"N" ~doc)
  in
  let f_t =
    let doc =
      "Byzantine nodes. Defaults to N/6 — well inside the slacked \
       f <= (1-eps)n/3 regime the sampling analysis assumes (see \
       docs/SCALABILITY.md and docs/MODEL.md)."
    in
    Arg.(value & opt (some int) None & info [ "f" ] ~docv:"F" ~doc)
  in
  let workload_t =
    Arg.(
      value
      & opt (enum [ ("split", `Split); ("unanimous", `Unanimous) ]) `Split
      & info [ "workload" ] ~docv:"W"
          ~doc:"Correct inputs: $(b,split) (node i inputs i mod 2) or \
                $(b,unanimous) (every correct node inputs 7).")
  in
  let trace_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record the run's event trace and write it as JSONL to \
             $(docv); analyze it offline with ubpa trace --file (the \
             worked session in docs/SCALABILITY.md).")
  in
  let run n f seed workload adversary trace_out =
    let module C = Scenarios.Committee_int in
    let f = match f with Some f -> f | None -> n / 6 in
    check_nf n f;
    let byz = List.init f (fun i -> adversary i) in
    let inputs =
      match workload with
      | `Split -> fun i -> i mod 2
      | `Unanimous -> fun _ -> 7
    in
    let trace = Option.map (fun _ -> Trace.create ~live:false ()) trace_out in
    let s = C.run ~seed:(i64 seed) ?trace ~byz ~n_correct:(n - f) ~inputs () in
    Fmt.pr "n=%d f=%d rounds=%d delivered-msgs=%d@." s.C.n s.C.f s.C.rounds
      s.C.delivered_msgs;
    Fmt.pr "committee: k=%d sampled members (%d byzantine); q=%d attestors \
            per observer@."
      (List.length s.C.committee)
      s.C.byz_members s.C.attestor_q;
    Fmt.pr "per-node wire budget (densest node, sent+received): %d msgs, %d \
            bits@."
      s.C.max_budget_msgs s.C.max_budget_bits;
    (* The population runs into the thousands; print a decision histogram
       rather than one line per node. *)
    let tally =
      List.fold_left
        (fun acc (_, v) ->
          match List.assoc_opt v acc with
          | Some c -> (v, c + 1) :: List.remove_assoc v acc
          | None -> (v, 1) :: acc)
        [] s.C.outputs
      |> List.sort compare
    in
    Fmt.pr "decisions: %s@."
      (String.concat ", "
         (List.map (fun (v, c) -> Printf.sprintf "%d x%d" v c) tally));
    Fmt.pr "agreement=%b unanimity-validity=%b terminated=%b \
            monitors-green=%b@."
      s.C.agreed s.C.valid s.C.all_terminated s.C.monitor_green;
    (match (trace_out, trace) with
    | Some path, Some t ->
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (Trace.to_jsonl t));
        Fmt.pr "trace written to %s (analyze with: ubpa trace --file %s \
                --summarize)@."
          path path
    | _ -> ());
    if not (s.C.agreed && s.C.monitor_green) then exit 1
  in
  let adversaries =
    [
      ( "mixed",
        fun i ->
          match i mod 3 with
          | 0 -> Scenarios.Committee_int.Attacks.silent_member
          | 1 -> Scenarios.Committee_int.Attacks.report_flood 99
          | _ -> Scenarios.Committee_int.Attacks.inner_split 0 1 );
      ("silent", fun _ -> Scenarios.Committee_int.Attacks.silent_member);
      ( "report-flood",
        fun _ -> Scenarios.Committee_int.Attacks.report_flood 99 );
      ( "report-equivocate",
        fun _ -> Scenarios.Committee_int.Attacks.report_equivocate 0 1 );
      ( "inner-split",
        fun _ -> Scenarios.Committee_int.Attacks.inner_split 0 1 );
    ]
  in
  Cmd.v
    (Cmd.info "committee"
       ~doc:
         "Sub-quadratic agreement by committee sampling (King-Saia style): \
          O~(sqrt N) per-node wire budget, population into the thousands \
          (see docs/SCALABILITY.md)")
    Term.(
      const run $ n_t $ f_t $ seed_t $ workload_t $ adversary_t adversaries
      $ trace_out_t)

(* ----- model checker ----- *)

let check_cmd =
  let protocol_t =
    let doc =
      "Protocol model to check: rb or consensus (committee is recognized \
       but not modeled — see docs/CHECKING.md)."
    in
    let names = List.map fst Ubpa_check.Models.all @ [ "committee" ] in
    Arg.(
      value
      & opt (enum (List.map (fun name -> (name, name)) names)) "rb"
      & info [ "protocol" ] ~docv:"PROTOCOL" ~doc)
  in
  let max_rounds_t =
    let doc = "Bound on explored rounds." in
    Arg.(value & opt int 5 & info [ "max-rounds" ] ~docv:"R" ~doc)
  in
  let jobs_t =
    let doc = "Worker domains for frontier expansion (OCaml 5 only)." in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)
  in
  let max_states_t =
    let doc = "Distinct-configuration budget per root." in
    Arg.(value & opt int 1_000_000 & info [ "max-states" ] ~docv:"S" ~doc)
  in
  let crashes_t =
    let doc = "Crash-stop events the adversary may schedule per execution." in
    Arg.(value & opt int 0 & info [ "crashes" ] ~docv:"C" ~doc)
  in
  let omissions_t =
    let doc =
      "Receive-omission events the adversary may schedule per execution."
    in
    Arg.(value & opt int 0 & info [ "omissions" ] ~docv:"O" ~doc)
  in
  let no_symmetry_t =
    let doc = "Disable the clone-class symmetry reduction." in
    Arg.(value & flag & info [ "no-symmetry" ] ~doc)
  in
  let cex_t =
    let doc = "Write the minimized counterexample trace (JSONL) to $(docv)." in
    Arg.(
      value
      & opt (some string) None
      & info [ "cex" ] ~docv:"FILE" ~doc)
  in
  let expect_t =
    let doc =
      "Exit non-zero unless the verdict is $(docv) (verified or violation)."
    in
    Arg.(
      value
      & opt (some (enum [ ("verified", `Verified); ("violation", `Violation) ]))
          None
      & info [ "expect" ] ~docv:"VERDICT" ~doc)
  in
  let run protocol n f max_rounds jobs max_states crashes omissions
      no_symmetry cex_file expect seed =
    (* No n > 3f warning: the checker explores the boundary on purpose. *)
    valid_nf n f;
    (* [Checker.check]'s other preconditions, as a usage error *)
    if max_rounds < 1 || crashes < 0 || omissions < 0 then begin
      Fmt.epr
        "ubpa check: need --max-rounds >= 1 and non-negative --crashes and \
         --omissions, got %d, %d and %d@."
        max_rounds crashes omissions;
      exit 2
    end;
    let check (module M : Ubpa_check.Model.S) =
      let module C = Ubpa_check.Checker.Make (M) in
      let r =
        C.check ~jobs ~symmetry:(not no_symmetry) ~max_states
          ~crash_budget:crashes ~omit_budget:omissions ~seed:(i64 seed) ~n ~f
          ~max_rounds ()
      in
      Fmt.pr "%s n=%d f=%d max-rounds=%d: %s@." M.name n f max_rounds
        (Ubpa_check.Checker.verdict_to_string r.verdict);
      Fmt.pr
        "  roots=%d explored=%d distinct=%d dedup-hits=%d sym-skips=%d \
         frontier-peak=%d depth=%d@."
        r.stats.roots r.stats.explored r.stats.distinct r.stats.dedup_hits
        r.stats.sym_skips r.stats.frontier_peak r.stats.depth;
      (match r.cex with
      | None -> ()
      | Some cx ->
          Fmt.pr
            "  counterexample: root=%s property=%s round=%d byz-msgs=%d \
             crashes=%d omissions=%d replayed=%b@.  %s@."
            cx.cx_root cx.cx_property cx.cx_round cx.cx_byz_msgs
            cx.cx_crashes cx.cx_omits cx.cx_replayed cx.cx_detail;
          match cex_file with
          | None -> ()
          | Some path ->
              let oc = open_out path in
              output_string oc cx.cx_jsonl;
              close_out oc;
              Fmt.pr "  trace written to %s (replay with: ubpa trace --file \
                      %s)@." path path);
      r.verdict
    in
    let verdict =
      match List.assoc_opt protocol Ubpa_check.Models.all with
      | Some model -> check model
      | None ->
          Fmt.epr
            "committee is not modeled by the bounded checker: its state \
             space is population-sized (the construction only makes sense \
             with n in the hundreds) and its guarantees are probabilistic \
             over the sampling seed, not exhaustive. Use `ubpa committee` \
             for seeded runs and the CX2 experiment for the gated \
             envelope — see docs/CHECKING.md and docs/SCALABILITY.md.@.";
          exit 2
    in
    match (expect, verdict) with
    | None, (Ubpa_check.Checker.Verified | Violated) -> ()
    | None, Out_of_budget -> exit 2
    | Some `Verified, Ubpa_check.Checker.Verified -> ()
    | Some `Violation, Violated -> ()
    | Some _, got ->
        Fmt.epr "expectation failed: got %s@."
          (Ubpa_check.Checker.verdict_to_string got);
        exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Bounded exhaustive safety checking of the core protocols \
             under the finite M1 adversary (see docs/CHECKING.md)")
    Term.(
      const run $ protocol_t $ n_t $ f_t $ max_rounds_t $ jobs_t
      $ max_states_t $ crashes_t $ omissions_t $ no_symmetry_t $ cex_t
      $ expect_t $ seed_t)

(* ----- impossibility ----- *)

let impossibility_cmd =
  let mode_t =
    Arg.(
      value
      & opt (enum [ ("async", `Async); ("semisync", `Semisync) ]) `Async
      & info [ "mode" ] ~docv:"MODE" ~doc:"async or semisync.")
  in
  let delta_t =
    Arg.(
      value & opt float 64.
      & info [ "delta" ] ~docv:"D" ~doc:"Delay bound for semisync mode.")
  in
  let run mode delta =
    let v =
      match mode with
      | `Async -> Ubpa_semisync.Partition.asynchronous ~size_a:3 ~size_b:3 ()
      | `Semisync ->
          Ubpa_semisync.Partition.semi_synchronous ~size_a:3 ~size_b:3 ~delta ()
    in
    Fmt.pr "partition A (inputs 1) decided: %a@."
      Fmt.(list ~sep:comma int)
      v.Ubpa_semisync.Partition.outputs_a;
    Fmt.pr "partition B (inputs 0) decided: %a@."
      Fmt.(list ~sep:comma int)
      v.Ubpa_semisync.Partition.outputs_b;
    Fmt.pr "max delay=%.1f decision times=(%.1f, %.1f)@."
      v.Ubpa_semisync.Partition.max_delay
      v.Ubpa_semisync.Partition.decision_time_a
      v.Ubpa_semisync.Partition.decision_time_b;
    Fmt.pr "disagreement=%b — agreement without knowing n and f requires \
            synchrony.@."
      v.Ubpa_semisync.Partition.disagreement
  in
  Cmd.v
    (Cmd.info "impossibility"
       ~doc:"Partition constructions of Section 'Synchrony is Necessary'")
    Term.(const run $ mode_t $ delta_t)

let () =
  let doc =
    "Byzantine agreement with unknown participants and failures (PODC 2020) \
     — simulation driver"
  in
  let info = Cmd.info "ubpa" ~version:Ubpa_util.Version.current ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            consensus_cmd;
            committee_cmd;
            binary_cmd;
            rb_cmd;
            rotor_cmd;
            aa_cmd;
            parallel_cmd;
            rename_cmd;
            trb_cmd;
            order_cmd;
            run_cmd;
            trace_cmd;
            chaos_cmd;
            check_cmd;
            impossibility_cmd;
          ]))
