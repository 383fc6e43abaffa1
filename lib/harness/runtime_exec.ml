open Ubpa_util
open Ubpa_sim

type check = { c_name : string; c_ok : bool; c_detail : string }

let check name ok detail =
  { c_name = name; c_ok = ok; c_detail = (if ok then "" else detail) }

let passed checks name =
  List.exists (fun c -> String.equal c.c_name name && c.c_ok) checks

let rec all_agree eq = function
  | [] -> true
  | x :: rest -> List.for_all (eq x) rest && all_agree eq rest

module Make (P : Protocol.S) = struct
  module RT = Ubpa_runtime.Runner.Make (P)
  module H = Harness.Make (P)

  type verdict = {
    v_run : RT.run;
    v_oracle : RT.Oracle.outcome;
    v_survivors : Node_id.t list;
    v_checks : check list;
    v_ok : bool;
    v_sim : H.outcome option;
    v_run_ms : float;
  }

  let eq_assoc eq a b =
    List.length a = List.length b
    && List.for_all2
         (fun (ia, va) (ib, vb) -> Node_id.equal ia ib && eq va vb)
         a b

  let oracle_check (oracle : RT.Oracle.outcome) ~what =
    check "oracle-replay" oracle.RT.Oracle.ok
      (match oracle.RT.Oracle.divergence with
      | Some d -> Fmt.str "%a" RT.Oracle.pp_divergence d
      | None -> what ^ " replay diverged")

  (* Exact lockstep equivalence: runtime, oracle and a fresh simulator run
     on the same population agree on everything observable. *)
  let exact_checks ?max_rounds ~correct (run : RT.run) oracle =
    let sim_trace = Trace.create () in
    let sim =
      H.execute ~trace:sim_trace ?max_rounds ~correct ~byzantine:[] ()
    in
    let rt_outputs =
      List.filter_map
        (fun (n : RT.node_summary) ->
          Option.map (fun o -> (n.RT.ns_id, o)) n.RT.ns_output)
        run.RT.r_nodes
    in
    let rt_decides =
      List.filter_map
        (fun (n : RT.node_summary) ->
          Option.map (fun r -> (n.RT.ns_id, r)) n.RT.ns_decide_round)
        run.RT.r_nodes
    in
    let sim_decides =
      List.filter_map
        (fun (r : H.Net.node_report) ->
          Option.map (fun d -> (r.H.Net.id, d)) r.H.Net.first_output_round)
        sim.H.reports
    in
    ( sim,
      [
        oracle_check oracle ~what:"schedule";
        check "decisions"
          (eq_assoc ( = ) rt_outputs oracle.RT.Oracle.outputs
          && eq_assoc ( = ) rt_outputs sim.H.outputs)
          (Fmt.str
             "runtime %d / oracle %d / sim %d deciding node(s) or values \
              differ"
             (List.length rt_outputs)
             (List.length oracle.RT.Oracle.outputs)
             (List.length sim.H.outputs));
        check "decide-rounds"
          (eq_assoc ( = ) rt_decides oracle.RT.Oracle.decide_rounds
          && eq_assoc ( = ) rt_decides sim_decides)
          "first-output rounds differ between runtime, oracle and sim";
        check "rounds"
          (run.RT.r_rounds = sim.H.rounds
          && run.RT.r_rounds = oracle.RT.Oracle.rounds)
          (Fmt.str "executed rounds differ: runtime %d, oracle %d, sim %d"
             run.RT.r_rounds oracle.RT.Oracle.rounds sim.H.rounds);
        check "trace"
          (Trace.equal_events run.RT.r_events (Trace.events sim_trace))
          (let d = Trace.diff_events run.RT.r_events (Trace.events sim_trace) in
           match d.Trace.first_divergence with
           | Some (i, _, _) ->
               Fmt.str "first trace divergence at event %d (%d vs %d events)" i
                 d.Trace.length_a d.Trace.length_b
           | None -> "trace streams differ");
        check "wire"
          (Ubpa_obs.Wire.equal run.RT.r_wire oracle.RT.Oracle.wire
          && Ubpa_obs.Wire.equal run.RT.r_wire (H.Net.wire sim.H.net))
          (Fmt.str
             "wire accounting differs: runtime %d msgs / %d bits, oracle %d / \
              %d, sim %d / %d"
             (Ubpa_obs.Wire.messages run.RT.r_wire)
             (Ubpa_obs.Wire.bits run.RT.r_wire)
             (Ubpa_obs.Wire.messages oracle.RT.Oracle.wire)
             (Ubpa_obs.Wire.bits oracle.RT.Oracle.wire)
             (Ubpa_obs.Wire.messages (H.Net.wire sim.H.net))
             (Ubpa_obs.Wire.bits (H.Net.wire sim.H.net)));
      ] )

  (* Graceful degradation. Every plan victim counts against f, as in the
     simulator's chaos harness: it is excused from the monitors and from
     the survivor checks. The crash ledger alone drives crash-view. *)
  let degradation_checks ~agree ~victims (run : RT.run) oracle survivors =
    let crashed =
      List.filter_map
        (fun (n : RT.node_summary) ->
          Option.map (fun _ -> n.RT.ns_id) n.RT.ns_crashed_at)
        run.RT.r_nodes
    in
    let monitor_violations =
      let m =
        Ubpa_monitor.create ~excused:victims
          [
            Ubpa_monitor.agreement ~equal:agree ();
            Ubpa_monitor.no_send_after_halt ();
          ]
      in
      List.iter (Ubpa_monitor.observe_event m) run.RT.r_events;
      Ubpa_monitor.observe m ~round:run.RT.r_rounds
        (List.map
           (fun (n : RT.node_summary) ->
             {
               Ubpa_monitor.node = n.RT.ns_id;
               joined_at = 1;
               halted_at = n.RT.ns_halted_at;
               down = n.RT.ns_crashed_at <> None;
               output = n.RT.ns_output;
             })
           run.RT.r_nodes);
      Ubpa_monitor.violations m
    in
    let survivor_outputs =
      List.filter_map (fun (n : RT.node_summary) -> n.RT.ns_output) survivors
    in
    (* The oracle's crashed-node view must match the runtime's crash
       ledger: every victim whose crash round the run reached is missing
       from the delivered schedule, and nothing else is. *)
    let crash_view_ok =
      let missing_ids = List.map fst oracle.RT.Oracle.missing in
      List.for_all
        (fun id -> List.exists (Node_id.equal id) crashed)
        missing_ids
      && List.for_all
           (fun (n : RT.node_summary) ->
             match n.RT.ns_crashed_at with
             | Some at when at <= run.RT.r_rounds ->
                 List.exists (Node_id.equal n.RT.ns_id) missing_ids
             | _ -> true)
           run.RT.r_nodes
    in
    [
      oracle_check oracle ~what:"delivered-schedule";
      check "crash-view" crash_view_ok
        (Fmt.str "oracle sees %d missing node(s), runtime crashed %d"
           (List.length oracle.RT.Oracle.missing)
           (List.length crashed));
      check "monitors" (monitor_violations = [])
        (match monitor_violations with
        | v :: _ -> Fmt.str "%a" Ubpa_monitor.pp_violation v
        | [] -> "monitor violation");
      check "survivor-agreement"
        (all_agree agree survivor_outputs)
        "two surviving correct nodes decided differently";
      check "survivors-decide"
        (List.length survivor_outputs = List.length survivors)
        (Fmt.str "%d of %d surviving node(s) decided"
           (List.length survivor_outputs)
           (List.length survivors));
    ]

  let run ?(agree = Stdlib.( = )) ?transport ?round_ms ?max_rounds
      ?(faults = Ubpa_faults.empty) ?fault_seed ?dead_after ~correct () =
    let t0 = Clock.now_ms () in
    match
      RT.run ?transport ?round_ms ?max_rounds ~faults ?fault_seed ?dead_after
        ~correct ()
    with
    | Error e -> Error e
    | Ok run ->
        let run_ms = Clock.elapsed_ms ~since:t0 in
        let exact = Ubpa_faults.is_empty faults in
        let oracle = RT.replay ~delivered:(not exact) run in
        let victims = Node_id.Set.of_list (Ubpa_faults.victims faults) in
        let survivors =
          List.filter
            (fun (n : RT.node_summary) ->
              not (Node_id.Set.mem n.RT.ns_id victims))
            run.RT.r_nodes
        in
        let sim, checks =
          if exact then
            let sim, checks = exact_checks ?max_rounds ~correct run oracle in
            (Some sim, checks)
          else (None, degradation_checks ~agree ~victims run oracle survivors)
        in
        Ok
          {
            v_run = run;
            v_oracle = oracle;
            v_survivors =
              List.map (fun (n : RT.node_summary) -> n.RT.ns_id) survivors;
            v_checks = checks;
            v_ok = List.for_all (fun c -> c.c_ok) checks;
            v_sim = sim;
            v_run_ms = run_ms;
          }
end
