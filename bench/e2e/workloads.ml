(* The five closed-loop workloads. Each pool slot is one agreement
   instance's inputs, generated from the workload seed; README.md records
   why each workload was chosen and which layers it loads. *)

open Ubpa_util
open Ubpa_sim
open Workload
module V = Unknown_ba.Value
module Rb = Unknown_ba.Reliable_broadcast.Make (V.String)
module C = Unknown_ba.Consensus.Make (V.Int)
module Ca = Ubpa_adversary.Consensus_attacks.Make (V.Int)

(* One independent stream per pool slot. *)
let slots ~seed n f =
  let root = Rng.create (Int64.of_int seed) in
  Array.init n (fun _ -> f (Rng.split root))

let max_of = List.fold_left max 0

let outcome ~problems ~counts ~work =
  { problems = List.filter_map Fun.id problems; counts; work }

let fail_if cond fmt =
  Printf.ksprintf (fun s -> if cond then Some s else None) fmt

(* ---- simulator ---- *)

module Sim (P : Timed.S) = struct
  module H = Ubpa_harness.Harness.Make (P)

  let create f = Prof.span "network.create" f

  let step net =
    Prof.span "network.step_round" (fun () -> H.Net.step_round net)

  (* [Net.run], with a monitor observation after every round exactly like
     Harness.execute's monitored loop; driven here so that every round and
     every observation is its own span. *)
  let run ?monitor ~max_rounds net =
    let rec go () =
      if H.Net.all_halted net then true
      else if H.Net.round net >= max_rounds then false
      else begin
        step net;
        Option.iter
          (fun m -> Prof.span "harness.observe" (fun () -> H.observe m net))
          monitor;
        go ()
      end
    in
    go ()

  (* A traced instance records every send for the delivery replay. *)
  let recorded ~traced f =
    if not traced then f ()
    else begin
      P.sent := [];
      Prof.recording := true;
      Fun.protect ~finally:(fun () -> Prof.recording := false) f
    end

  let decide_rounds_max reports =
    max_of
      (List.map
         (fun (r : H.Net.node_report) ->
           Option.value ~default:0 r.first_output_round)
         reports)

  let layers ~equal ~wire net ~instance_ns _snap =
    let sched = of_recorded !P.sent in
    P.sent := [];
    let m = H.Net.metrics net and w = H.Net.wire net in
    let live = if wire then Ubpa_obs.Wire.messages w else Metrics.delivered m in
    delivery_layers ~equal ~wire ~live ~instance_ns sched
    @ [
        ("wire.msgs", float_of_int (Ubpa_obs.Wire.messages w));
        ("wire.bits", float_of_int (Ubpa_obs.Wire.bits w));
        ( "faults.dropped",
          if wire then float_of_int (Metrics.wire_msgs m - Metrics.delivered m)
          else 0. );
      ]
end

(* ---- rb-fanout ---- *)

module Rb_run
    (P : Timed.S
           with type input = Rb.input
            and type output = Rb.output
            and type message = Rb.message) =
struct
  module S = Sim (P)

  let run ~ids ~sender ~rounds ~traced =
    let correct =
      List.map
        (fun id -> (id, if Node_id.equal id sender then Some "m" else None))
        ids
    in
    let net =
      S.recorded ~traced (fun () ->
          let net =
            S.create (fun () ->
                S.H.create ~delivery:Delivery.Arena ~wire_accounting:false
                  ~correct ~byzantine:[] ())
          in
          for _ = 1 to rounds do
            S.step net
          done;
          net)
    in
    let finish () =
      let reports = S.H.Net.reports net in
      let accepted (r : S.H.Net.node_report) =
        match r.last_output with
        | Some l ->
            List.exists
              (fun (a : Rb.accepted) ->
                String.equal a.payload "m" && Node_id.equal a.sender sender)
              l
        | None -> false
      in
      let missing =
        List.length (List.filter (fun r -> not (accepted r)) reports)
      in
      let deliveries = Metrics.delivered (S.H.Net.metrics net) in
      outcome
        ~problems:
          [
            fail_if (missing > 0)
              "%d of %d correct nodes did not accept the payload" missing
              (List.length reports);
          ]
        ~counts:
          [
            ("deliveries", deliveries);
            ("rounds", S.H.Net.round net);
            ("decide_rounds_max", S.decide_rounds_max reports);
          ]
        ~work:deliveries
    in
    let layers =
      if traced then S.layers ~equal:Rb.equal_message ~wire:false net
      else no_layers
    in
    { finish; layers }
end

module Rb_plain = Rb_run (Timed.Plain (Rb))
module Rb_timed = Rb_run (Timed.Make (Rb))

let rb_fanout =
  {
    name = "rb-fanout";
    available = Ok ();
    make =
      (fun ~seed ~smoke ->
        let n = if smoke then 31 else 1001 and rounds = 3 in
        slots ~seed 2 (fun rng ->
            let ids = Node_id.scatter ~seed:(Rng.int64 rng) n in
            let sender = List.nth ids (Rng.int rng n) in
            {
              plain =
                (fun () -> Rb_plain.run ~ids ~sender ~rounds ~traced:false);
              traced =
                (fun () -> Rb_timed.run ~ids ~sender ~rounds ~traced:true);
            }));
  }

(* ---- consensus (split-world attack, benign faults) ---- *)

(* Agreement among the judged deciders, and validity against the correct
   inputs: unanimous judged inputs force that decision, and any decision
   is some correct node's input. *)
let consensus_problems ~inputs ~judged_inputs outputs =
  let decisions = List.map snd outputs in
  let unanimous =
    match judged_inputs with
    | v :: rest when List.for_all (Int.equal v) rest -> Some v
    | _ -> None
  in
  [
    fail_if
      (match decisions with
      | d :: rest -> not (List.for_all (Int.equal d) rest)
      | [] -> false)
      "decisions disagree";
    fail_if
      (List.exists
         (fun d ->
           (not (List.mem d inputs))
           || match unanimous with Some v -> d <> v | None -> false)
         decisions)
      "a decision violates validity";
  ]

module Cons_run
    (P : Timed.S
           with type input = int
            and type output = int
            and type message = C.message) =
struct
  module S = Sim (P)

  let max_rounds = 120

  let run ~correct ~byzantine ~plan ~seed ~traced =
    let byzantine =
      if not traced then byzantine
      else
        List.map
          (fun (id, s) -> (id, Timed.strategy ~record:P.record s))
          byzantine
    in
    let victims = Node_id.Set.of_list (Ubpa_faults.victims plan) in
    let judged id = not (Node_id.Set.mem id victims) in
    let monitor =
      if Ubpa_faults.is_empty plan then None
      else
        Some
          (Ubpa_monitor.create ~excused:victims
             [
               Ubpa_monitor.agreement ~equal:Int.equal ();
               Ubpa_monitor.termination_by ~round:(max_rounds / 2) ();
               Ubpa_monitor.no_send_after_halt ();
             ])
    in
    (* Event-based invariants subscribe to the trace, as Harness.execute
       arranges for monitored runs. *)
    let trace =
      match monitor with Some _ -> Trace.create () | None -> Trace.disabled
    in
    let net, halted =
      S.recorded ~traced (fun () ->
          let net =
            S.create (fun () ->
                S.H.create ~delivery:Delivery.Arena ~seed ~faults:plan ~trace
                  ~correct ~byzantine ())
          in
          Option.iter
            (fun m -> Trace.subscribe trace (Ubpa_monitor.observe_event m))
            monitor;
          (net, S.run ?monitor ~max_rounds net))
    in
    let finish () =
      let reports =
        List.filter
          (fun (r : S.H.Net.node_report) -> judged r.id)
          (S.H.Net.reports net)
      in
      let outputs =
        List.filter (fun (id, _) -> judged id) (S.H.Net.outputs net)
      in
      let undecided =
        List.length
          (List.filter
             (fun (r : S.H.Net.node_report) -> r.halted_at = None)
             reports)
      in
      let violations =
        match monitor with None -> [] | Some m -> Ubpa_monitor.violations m
      in
      let m = S.H.Net.metrics net and w = S.H.Net.wire net in
      outcome
        ~problems:
          ([
             fail_if (not halted) "stalled at round %d" (S.H.Net.round net);
             fail_if (undecided > 0) "%d correct nodes did not decide"
               undecided;
           ]
          @ consensus_problems ~inputs:(List.map snd correct)
              ~judged_inputs:
                (List.filter_map
                   (fun (id, v) -> if judged id then Some v else None)
                   correct)
              outputs
          @ List.map
              (fun v ->
                Some (Fmt.str "monitor: %a" Ubpa_monitor.pp_violation v))
              violations)
        ~counts:
          [
            ("deliveries", Metrics.delivered m);
            ("wire_msgs", Ubpa_obs.Wire.messages w);
            ("wire_bits", Ubpa_obs.Wire.bits w);
            ("rounds", S.H.Net.round net);
            ("decide_rounds_max", S.decide_rounds_max reports);
          ]
        ~work:(Metrics.delivered m)
    in
    let layers =
      if traced then S.layers ~equal:C.equal_message ~wire:true net
      else no_layers
    in
    { finish; layers }
end

module Cons_plain = Cons_run (Timed.Plain (C))
module Cons_timed = Cons_run (Timed.Make (C))

(* [size smoke] is (pool slots, correct nodes, Byzantine nodes running
   [attack]). Random inputs decide in 12 rounds for most id draws and in
   17 for the rest; pools of this size keep that mix, and so the
   per-run means, steady from seed to seed. *)
let consensus ~name ~size ~plan_of ~attack =
  {
    name;
    available = Ok ();
    make =
      (fun ~seed ~smoke ->
        let pool, n_correct, f = size smoke in
        slots ~seed pool (fun rng ->
            let s = Rng.int64 rng in
            let ids = Node_id.scatter ~seed:s (n_correct + f) in
            let correct =
              List.filteri (fun i _ -> i < n_correct) ids
              |> List.map (fun id -> (id, Rng.int rng 2))
            in
            let byzantine =
              List.filteri (fun i _ -> i >= n_correct) ids
              |> List.map (fun id -> (id, attack))
            in
            let plan = plan_of (List.map fst correct) in
            {
              plain =
                (fun () ->
                  Cons_plain.run ~correct ~byzantine ~plan ~seed:s
                    ~traced:false);
              traced =
                (fun () ->
                  Cons_timed.run ~correct ~byzantine ~plan ~seed:s
                    ~traced:true);
            }));
  }

let consensus_split =
  consensus ~name:"consensus-split"
    ~size:(fun smoke -> if smoke then (2, 7, 3) else (48, 41, 20))
    ~plan_of:(fun _ -> Ubpa_faults.empty)
    ~attack:(Ca.split_world 0 1)

let fault_spec = "crash:1@3,recv-omit:2@1..=0.3,delay:4@1..=0.3x1"

let consensus_faults =
  consensus ~name:"consensus-faults"
    ~size:(fun smoke -> if smoke then (2, 10, 0) else (64, 31, 0))
    ~plan_of:(fun ids ->
      match Ubpa_faults.parse_spec ~ids fault_spec with
      | Ok p -> p
      | Error e -> invalid_arg e)
    ~attack:Strategy.silent

(* ---- runtime-consensus ---- *)

module Rt_run
    (P : Timed.S
           with type input = int
            and type output = int
            and type message = C.message) =
struct
  module RT = Ubpa_runtime.Runner.Make (P)

  let available = if RT.available then Ok () else Error RT.unavailable_reason

  let check ~correct (run : RT.run) =
    let oracle = Prof.span "oracle.replay" (fun () -> RT.replay run) in
    let outputs =
      List.filter_map
        (fun (n : RT.node_summary) ->
          Option.map (fun o -> (n.ns_id, o)) n.ns_output)
        run.r_nodes
    in
    let decided = List.length outputs and nodes = List.length correct in
    let deliveries = Ubpa_obs.Wire.messages run.r_wire in
    outcome
      ~problems:
        ([
           fail_if (not oracle.ok) "oracle replay: %s"
             (match oracle.divergence with
             | Some d -> Fmt.str "%a" RT.Oracle.pp_divergence d
             | None -> "diverged");
           fail_if (outputs <> oracle.outputs)
             "runtime and oracle decisions differ";
           fail_if (decided <> nodes) "%d of %d nodes decided" decided nodes;
           fail_if (run.r_late_frames > 0) "%d late frames" run.r_late_frames;
         ]
        @ consensus_problems ~inputs:(List.map snd correct)
            ~judged_inputs:(List.map snd correct) outputs)
      ~counts:
        [
          ("deliveries", deliveries);
          ("wire_bits", Ubpa_obs.Wire.bits run.r_wire);
          ("rounds", run.r_rounds);
          ( "decide_rounds_max",
            max_of
              (List.map
                 (fun (n : RT.node_summary) ->
                   Option.value ~default:0 n.ns_decide_round)
                 run.r_nodes) );
          ("frames", run.r_frames);
          ("frame_bytes", run.r_frame_bytes);
        ]
      ~work:deliveries

  (* The delivery replay over the recorded schedule, the frame replay, and
     what is left of the instance once each node's busy time is taken
     out: transport, marker waits, domain spawn. *)
  let layers ~correct (run : RT.run) ~instance_ns snap =
    let rounds = run.r_schedule.RT.Oracle.sc_rounds in
    let sends m =
      List.map
        (fun (src, (nr : RT.Oracle.node_round)) -> (src, nr.nr_sends))
        (Node_id.Map.bindings m)
    in
    let sched =
      Array.of_list
        (List.map
           (fun m ->
             ( Node_id.Set.of_list (List.map fst (Node_id.Map.bindings m)),
               List.concat_map (fun (src, out) -> envelopes ~src out) (sends m)
             ))
           rounds)
    in
    let d =
      delivery_layers ~equal:C.equal_message ~wire:true
        ~live:(Ubpa_obs.Wire.messages run.r_wire)
        ~instance_ns sched
    in
    let encode_ns, decode_ns =
      Prof.span "replay.frame" (fun () ->
          Workload.frames ~ids:(List.map fst correct) (List.map sends rounds))
    in
    let busy_per_node =
      (Prof.ns snap "protocol.step" + Prof.ns snap "protocol.equal"
     + encode_ns + decode_ns)
      / List.length correct
    in
    let share = share ~instance_ns in
    d
    @ [
        ("wire.msgs", float_of_int (Ubpa_obs.Wire.messages run.r_wire));
        ("wire.bits", float_of_int (Ubpa_obs.Wire.bits run.r_wire));
        ("runtime.frames", float_of_int run.r_frames);
        ("runtime.frame_bytes", float_of_int run.r_frame_bytes);
        ("runtime.late_frames", float_of_int run.r_late_frames);
        ("frame.encode_share", share encode_ns);
        ("frame.decode_share", share decode_ns);
        ( "runtime.unattributed_share",
          share
            (max 0
               (instance_ns - busy_per_node - Prof.ns snap "wire.sizing")) );
      ]

  let run ~correct ~traced =
    let r =
      Prof.span "runner.run" (fun () ->
          RT.run ~transport:`Socket ~max_rounds:40 ~correct ())
    in
    match r with
    | Error e ->
        {
          finish = (fun () -> outcome ~problems:[ Some e ] ~counts:[] ~work:0);
          layers = no_layers;
        }
    | Ok run ->
        {
          finish = (fun () -> check ~correct run);
          layers = (if traced then layers ~correct run else no_layers);
        }
end

module Rt_plain = Rt_run (Timed.Plain (C))
module Rt_timed = Rt_run (Timed.Make (C))

let runtime_consensus =
  {
    name = "runtime-consensus";
    available = Rt_plain.available;
    make =
      (fun ~seed ~smoke ->
        slots ~seed (if smoke then 2 else 16) (fun rng ->
            let ids = Node_id.scatter ~seed:(Rng.int64 rng) 4 in
            (* Alternating inputs always decide in phase 2 (12 rounds); random
               ones split between 7 and 12 rounds, which puts the median
               between two modes. *)
            let correct = List.mapi (fun i id -> (id, i mod 2)) ids in
            {
              plain = (fun () -> Rt_plain.run ~correct ~traced:false);
              traced = (fun () -> Rt_timed.run ~correct ~traced:true);
            }));
  }

(* ---- check-consensus ---- *)

module Check_run (M : Ubpa_check.Model.S) = struct
  module K = Ubpa_check.Checker.Make (M)

  let run ~seed ~max_rounds =
    let r =
      Prof.span "checker.check" (fun () ->
          K.check ~jobs:1 ~seed ~n:4 ~f:1 ~max_rounds ())
    in
    let s = r.Ubpa_check.Checker.stats in
    let finish () =
      outcome
        ~problems:
          [
            fail_if
              (r.verdict <> Ubpa_check.Checker.Verified)
              "verdict %s"
              (Ubpa_check.Checker.verdict_to_string r.verdict);
          ]
        ~counts:
          [
            ("explored", s.explored);
            ("distinct", s.distinct);
            ("dedup", s.dedup_hits);
          ]
        ~work:s.explored
    in
    let layers ~instance_ns:_ _ =
      [
        ("checker.explored", float_of_int s.explored);
        ("checker.distinct", float_of_int s.distinct);
        ("checker.dedup_hits", float_of_int s.dedup_hits);
        ( "checker.dedup_hit_ratio",
          float_of_int s.dedup_hits
          /. float_of_int (max 1 (s.dedup_hits + s.distinct)) );
      ]
    in
    { finish; layers }
end

module Check_plain = Check_run (Ubpa_check.Models.Consensus)
module Check_timed = Check_run (Timed.Model (Ubpa_check.Models.Consensus))

let check_consensus =
  {
    name = "check-consensus";
    available = Ok ();
    make =
      (fun ~seed ~smoke ->
        let max_rounds = if smoke then 3 else 5 in
        slots ~seed 2 (fun rng ->
            let seed = Rng.int64 rng in
            {
              plain = (fun () -> Check_plain.run ~seed ~max_rounds);
              traced = (fun () -> Check_timed.run ~seed ~max_rounds);
            }));
  }

let all =
  [
    rb_fanout;
    consensus_split;
    consensus_faults;
    runtime_consensus;
    check_consensus;
  ]
