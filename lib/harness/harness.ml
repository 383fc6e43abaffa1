open Ubpa_util
open Ubpa_sim

let make_ids ~seed n = Node_id.scatter ~seed n
let max_f n = (n - 1) / 3

let split_population ~seed ~n_correct ~n_byz =
  let ids = make_ids ~seed (n_correct + n_byz) in
  let correct = List.filteri (fun i _ -> i < n_correct) ids in
  let byz = List.filteri (fun i _ -> i >= n_correct) ids in
  (correct, byz)

let monitored_trace ?trace monitor =
  (* Event-based invariants need an enabled trace to subscribe to. *)
  let tr =
    match (trace, monitor) with
    | Some tr, _ -> tr
    | None, Some _ -> Trace.create ()
    | None, None -> Trace.disabled
  in
  (match monitor with
  | Some m when Trace.enabled tr ->
      Trace.subscribe tr (Ubpa_monitor.observe_event m)
  | _ -> ());
  tr

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

  let observation (n : Net.node_report) =
    {
      Ubpa_monitor.node = n.id;
      joined_at = n.joined_at;
      halted_at = n.halted_at;
      down = n.down_since <> None;
      output = n.last_output;
    }

  let observations net = List.map observation (Net.reports net)

  let observe monitor net =
    Ubpa_monitor.observe monitor ~round:(Net.round net) (observations net)

  let execute ?delivery ?wire_accounting ?seed ?faults ?trace ?classify
      ?stimulus ?max_rounds ?stop ?(settle = 0) ?monitor ~correct ~byzantine
      () =
    let net =
      create ?delivery ?wire_accounting ?seed ?faults
        ~trace:(monitored_trace ?trace monitor)
        ?classify ?stimulus ~correct ~byzantine ()
    in
    let after =
      match monitor with None -> ignore | Some m -> fun () -> observe m net
    in
    let until, done_ =
      match stop with
      | None -> ((fun () -> Net.all_halted net), `All_halted)
      | Some stop -> ((fun () -> stop net), `Stopped)
    in
    let finished =
      if stop = None && not (Net.has_correct net) then `No_correct_nodes
      else
        match Net.loop ?max_rounds net ~until ~after with
        | `Done -> done_
        | `Max_rounds_reached _ as m -> m
    in
    for _ = 1 to settle do
      Net.step_round net;
      after ()
    done;
    collect net ~finished
end
