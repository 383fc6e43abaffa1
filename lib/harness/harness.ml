open Ubpa_util
open Ubpa_sim

let make_ids ~seed n = Node_id.scatter ~seed n
let max_f n = (n - 1) / 3

let split_population ~seed ~n_correct ~n_byz =
  let ids = make_ids ~seed (n_correct + n_byz) in
  let correct = List.filteri (fun i _ -> i < n_correct) ids in
  let byz = List.filteri (fun i _ -> i >= n_correct) ids in
  (correct, byz)

module Make (P : Protocol.S) = struct
  module Net = Network.Make (P)

  type finished =
    [ `All_halted
    | `Max_rounds_reached of Node_id.t list
    | `No_correct_nodes
    | `Stopped ]

  type outcome = {
    finished : finished;
    rounds : int;
    delivered_msgs : int;
    outputs : (Node_id.t * P.output) list;
    reports : Net.node_report list;
    metrics : Metrics.t;
    net : Net.t;
  }

  let create ?delivery ?wire_accounting ?seed ?faults ?trace ?classify
      ?stimulus ~correct ~byzantine () =
    Net.create ?delivery ?wire_accounting ?seed ?faults ?trace ?classify
      ?stimulus ~correct ~byzantine ()

  let collect net ~finished =
    let metrics = Net.metrics net in
    {
      finished;
      rounds = Net.round net;
      delivered_msgs = Metrics.delivered metrics;
      outputs = Net.outputs net;
      reports = Net.reports net;
      metrics;
      net;
    }

  let observations net =
    List.map
      (fun (r : Net.node_report) ->
        {
          Ubpa_monitor.node = r.id;
          joined_at = r.joined_at;
          halted_at = r.halted_at;
          down = r.down_since <> None;
          output = r.last_output;
        })
      (Net.reports net)

  let observe monitor net =
    Ubpa_monitor.observe monitor ~round:(Net.round net) (observations net)

  (* [Net.run] / [Net.run_until], with a monitor observation after every
     round. *)
  let run_monitored ?(max_rounds = 10_000) ?stop net ~monitor =
    if stop = None && not (Net.has_correct net) then `No_correct_nodes
    else
      let finished () =
        match stop with
        | None -> if Net.all_halted net then Some `All_halted else None
        | Some stop -> if stop net then Some `Stopped else None
      in
      let rec go () =
        match finished () with
        | Some f -> f
        | None ->
            if Net.round net >= max_rounds then
              `Max_rounds_reached (Net.stalled net)
            else begin
              Net.step_round net;
              observe monitor net;
              go ()
            end
      in
      go ()

  let execute ?delivery ?wire_accounting ?seed ?faults ?trace ?classify
      ?stimulus ?max_rounds ?stop ?(settle = 0) ?monitor ~correct ~byzantine
      () =
    (* Event-based invariants need an enabled trace to subscribe to; give
       monitored runs one even if the caller did not ask for a trace. *)
    let trace =
      match (trace, monitor) with
      | Some tr, _ -> Some tr
      | None, Some _ -> Some (Trace.create ())
      | None, None -> None
    in
    let net =
      create ?delivery ?wire_accounting ?seed ?faults ?trace ?classify
        ?stimulus ~correct ~byzantine ()
    in
    let finished =
      match monitor with
      | None -> (
          match stop with
          | None -> (Net.run ?max_rounds net :> finished)
          | Some stop -> (Net.run_until ?max_rounds net ~stop :> finished))
      | Some monitor ->
          Option.iter
            (fun tr ->
              if Trace.enabled tr then
                Trace.subscribe tr (Ubpa_monitor.observe_event monitor))
            trace;
          (run_monitored ?max_rounds ?stop net ~monitor :> finished)
    in
    for _ = 1 to settle do
      Net.step_round net;
      match monitor with None -> () | Some m -> observe m net
    done;
    collect net ~finished
end
