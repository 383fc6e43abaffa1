(* End-to-end benchmark: runs one workload's closed loop and prints
   every metric as "workload metric value unit", then one JSON result
   line. Several workloads run one fresh process each. See README.md. *)

open Ubpa_util

let e2e_metrics =
  [
    ("setup_s", "s");
    ("instance_ms_p50", "ms");
    ("work_per_s", "1/s");
    ("alloc_mb", "MB");
  ]

let layer_metrics =
  [
    ("trace.instance_ms", "ms");
    ("trace.overhead_ratio", "ratio");
    ("trace.unattributed_share", "%");
    ("protocol.step_calls", "count");
    ("protocol.step_ms", "ms");
    ("protocol.step_ns_per_inbox_msg", "ns");
    ("protocol.inbox_msgs", "count");
    ("protocol.sends", "count");
    ("protocol.equal_calls", "count");
    ("protocol.equal_share", "%");
    ("network.rounds", "count");
    ("network.self_share", "%");
    ("delivery.deliveries", "count");
    ("delivery.route_share", "%");
    ("delivery.expand_share", "%");
    ("delivery.materialise_share", "%");
    ("delivery.dedup_calls", "count");
    ("delivery.minor_words_per_delivery", "words");
    ("adversary.act_calls", "count");
    ("adversary.act_share", "%");
    ("adversary.sends", "count");
    ("wire.sizing_calls", "count");
    ("wire.sizing_share", "%");
    ("wire.record_share", "%");
    ("wire.msgs", "count");
    ("wire.bits", "bits");
    ("faults.dropped", "count");
    ("monitor.observe_calls", "count");
    ("monitor.observe_share", "%");
    ("runtime.frames", "count");
    ("runtime.frame_bytes", "bytes");
    ("runtime.late_frames", "count");
    ("runtime.unattributed_share", "%");
    ("frame.encode_share", "%");
    ("frame.decode_share", "%");
    ("oracle.replay_share", "%");
    ("checker.explored", "count");
    ("checker.distinct", "count");
    ("checker.dedup_hits", "count");
    ("checker.dedup_hit_ratio", "ratio");
    ("checker.copy_state_share", "%");
    ("checker.state_key_share", "%");
    ("checker.properties_share", "%");
    ("checker.self_share", "%");
  ]

type opts = {
  workloads : string list;
  seed : int;
  seconds : float;
  trace : bool;
  smoke_size : bool;
  json : string option;
  spans : string option;
  expected : string;
}

let elapsed_s since = float_of_int (Prof.now_ns () - since) /. 1e9

(* ---- output ---- *)

let append path json =
  let oc = open_out_gen [ Open_append; Open_creat; Open_text ] 0o644 path in
  output_string oc (Json.to_string ~pretty:false json ^ "\n");
  close_out oc

let emit o ~workload ~samples (name, value, unit) =
  Printf.printf "%s %s %s %s\n" workload name
    (Json.to_string (`Float value))
    unit;
  Option.iter
    (fun path ->
      append path
        (`Assoc
          [
            ("workload", `String workload);
            ("metric", `String name);
            ("value", `Float value);
            ("unit", `String unit);
            ("samples", `Int samples);
            ("seed", `Int o.seed);
            ("trace", `Bool o.trace);
          ]))
    o.json

(* ---- per-layer values of one traced instance ---- *)

let generic_layers ~instance_ns ~root (snap : Prof.snapshot) spans =
  let c n = float_of_int (Prof.calls snap n) and t = Prof.ns snap in
  let share = Workload.share ~instance_ns in
  let named n =
    List.filter (fun (s : Prof.span) -> String.equal s.name n) spans
  in
  let total = Prof.total_ns spans in
  let children =
    List.fold_left
      (fun acc (s : Prof.span) ->
        if s.parent = root then acc + Prof.dur s else acc)
      0 spans
  in
  let inbox = Prof.calls snap "protocol.inbox_msgs" in
  let rounds = named "network.step_round" in
  let checks = total "checker.check" in
  let step = t "protocol.step" and equal = t "protocol.equal" in
  [
    ("trace.unattributed_share", share (instance_ns - children));
    ("protocol.step_calls", c "protocol.step");
    ("protocol.step_ms", float_of_int step /. 1e6);
    ( "protocol.step_ns_per_inbox_msg",
      if inbox = 0 then 0. else float_of_int step /. float_of_int inbox );
    ("protocol.inbox_msgs", float_of_int inbox);
    ("protocol.sends", c "protocol.sends");
    ("protocol.equal_calls", c "protocol.equal");
    ("protocol.equal_share", share equal);
    ("network.rounds", float_of_int (List.length rounds));
    ( "network.self_share",
      if rounds = [] then 0.
      else
        share
          (total "network.step_round" - step - equal - t "adversary.act"
         - t "wire.sizing") );
    ("adversary.act_calls", c "adversary.act");
    ("adversary.act_share", share (t "adversary.act"));
    ("adversary.sends", c "adversary.sends");
    ("wire.sizing_calls", c "wire.sizing");
    ("wire.sizing_share", share (t "wire.sizing"));
    ( "monitor.observe_calls",
      float_of_int (List.length (named "harness.observe")) );
    ("monitor.observe_share", share (total "harness.observe"));
    ("oracle.replay_share", share (total "oracle.replay"));
    ("checker.copy_state_share", share (t "checker.copy_state"));
    ("checker.state_key_share", share (t "checker.state_key"));
    ("checker.properties_share", share (t "checker.properties"));
    ( "checker.self_share",
      if checks = 0 then 0.
      else
        share
          (checks - step - equal - t "checker.copy_state"
         - t "checker.state_key" - t "checker.properties") );
  ]

(* Run the traced twin of an input and return its per-layer values and
   wall time. It must reproduce the untraced counts exactly, or the
   wrappers changed behaviour. *)
let traced_twin ~i (inst : Workload.instance) ~(counts : (string * int) list)
    =
  Prof.reset ();
  Prof.instance := i;
  Prof.tracing := true;
  Fun.protect
    ~finally:(fun () -> Prof.tracing := false)
    (fun () ->
      let t0 = Prof.now_ns () in
      let tr = Prof.span "instance" inst.traced in
      let dt = Prof.now_ns () - t0 in
      let snap = Prof.snapshot () in
      if (tr.finish ()).counts <> counts then
        failwith "traced counts differ from the untraced run of the same input";
      let spans = Prof.instance_spans i in
      let root =
        List.find
          (fun (s : Prof.span) ->
            s.parent = 0 && String.equal s.name "instance")
          spans
      in
      let instance_ns = Prof.dur root in
      let specific = tr.layers ~instance_ns snap in
      Prof.log_counters i snap;
      (generic_layers ~instance_ns ~root:root.id snap spans @ specific, dt))

(* ---- pinned counts ---- *)

(* Per-input counts summed over the pool ("..._max" counts take the max). *)
let pinned first =
  let names = match first.(0) with Some c -> List.map fst c | None -> [] in
  List.map
    (fun name ->
      let values =
        Array.to_list first
        |> List.filter_map (Option.map (fun c -> List.assoc name c))
      in
      let is_max = String.ends_with ~suffix:"_max" name in
      (name, List.fold_left (if is_max then max else ( + )) 0 values))
    names

let expected_counts o ~workload =
  let size = if o.smoke_size then "smoke" else "full" in
  match In_channel.with_open_bin o.expected In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match Json.of_string text with
      | Error e -> Error e
      | Ok j -> (
          match Option.bind (Json.member size j) (Json.member workload) with
          | Some (`Assoc kvs) ->
              Ok
                (List.filter_map
                   (fun (k, v) -> Option.map (fun v -> (k, v)) (Json.to_int v))
                   kvs)
          | _ ->
              Error
                (Printf.sprintf "%s has no %s.%s entry" o.expected size
                   workload)))

let show counts =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts)

(* ---- one workload ---- *)

(* Words allocated so far by every domain, finished ones included. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

let mb words = words *. float_of_int (Sys.word_size / 8) /. 1048576.

let run_one o (w : Workload.t) =
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf (fun s -> problems := s :: !problems) fmt
  in
  let attempted = ref 0 and failed = ref 0 in
  let first = ref [||] in
  (* An instance is correct when its own checks pass and its counts equal
     those of the first run of the same input. *)
  let judge ~k ~what (out : Workload.outcome) =
    let bad =
      out.problems
      @
      match !first.(k) with
      | None ->
          !first.(k) <- Some out.counts;
          []
      | Some c when c = out.counts -> []
      | Some _ -> [ "counts differ from the first run of the same input" ]
    in
    List.iter (fun p -> problem "%s (input %d): %s" what k p) bad;
    bad = []
  in
  (* Set-up: input generation plus the untimed warm-up instance, repeated
     (at least 5 times, up to a tenth of the run) and reported as a median:
     the first repetitions of a fresh process still grow its heap. *)
  let setups = ref [] and pool = ref [||] in
  let t_setup = Prof.now_ns () in
  while
    List.length !setups < 5
    || elapsed_s t_setup < 0.1 *. o.seconds
       && List.length !setups < 25
  do
    let t0 = Prof.now_ns () in
    let p = w.make ~seed:o.seed ~smoke:o.smoke_size in
    if !first = [||] then first := Array.make (Array.length p) None;
    let out = (p.(0).plain ()).finish () in
    setups := elapsed_s t0 :: !setups;
    pool := p;
    ignore (judge ~k:0 ~what:"warm-up" out)
  done;
  (* The closed loop: every pool slot at least once, then until time. *)
  let pool = !pool in
  let n = Array.length pool in
  let times = ref [] and rates = ref [] and alloc = ref 0. in
  let rows = ref [] and plain_ns = ref 0 and traced_ns = ref 0 in
  let aborted = ref false in
  let t_loop = Prof.now_ns () in
  let i = ref 0 in
  while (not !aborted) && (!i < n || elapsed_s t_loop < o.seconds) do
    let k = !i mod n in
    incr attempted;
    (match
       let w0 = allocated_words () in
       let t0 = Prof.now_ns () in
       let r = pool.(k).plain () in
       let dt = Prof.now_ns () - t0 in
       alloc := !alloc +. (allocated_words () -. w0);
       let out = r.finish () in
       let ok = judge ~k ~what:"instance" out in
       times := dt :: !times;
       rates := (float_of_int out.work /. (float_of_int dt /. 1e9)) :: !rates;
       if o.trace then begin
         let row, dt_traced = traced_twin ~i:!i pool.(k) ~counts:out.counts in
         rows := row :: !rows;
         plain_ns := !plain_ns + dt;
         traced_ns := !traced_ns + dt_traced
       end;
       ok
     with
    | true -> ()
    | false -> incr failed
    | exception e ->
        incr failed;
        problem "instance %d raised %s" k (Printexc.to_string e);
        (* A traced run that cannot attribute its layers is void. *)
        if o.trace then aborted := true);
    incr i
  done;
  let pins =
    if Array.for_all Option.is_some !first then pinned !first else []
  in
  if o.seed = 1 then begin
    match expected_counts o ~workload:w.name with
    | Error e -> problem "expected counts: %s" e
    | Ok exp ->
        if List.sort compare exp <> List.sort compare pins then
          problem "pinned counts %s differ from expected %s" (show pins)
            (show exp)
  end;
  let emit = emit o ~workload:w.name in
  let count = List.length !times in
  List.iter
    (fun (k, v) -> emit ~samples:n ("pinned." ^ k, float_of_int v, "count"))
    pins;
  emit ~samples:!attempted
    ( "failed_ratio",
      float_of_int !failed /. float_of_int (max 1 !attempted),
      "ratio" );
  let metrics =
    if not o.trace then begin
      let ms = List.map (fun ns -> float_of_int ns /. 1e6) !times in
      let busy_s = List.fold_left ( +. ) 0. ms /. 1e3 in
      emit ~samples:count ("instances", float_of_int count, "count");
      (* Informational, like the lines below: a mean over the closed loop,
         so one stalled instance moves it where it cannot move a median. *)
      emit ~samples:count
        ("instances_per_s", float_of_int count /. busy_s, "1/s");
      (* Informational: with several domains the peak follows GC timing. *)
      emit ~samples:1
        ( "heap_peak_mb",
          mb (float_of_int (Gc.quick_stat ()).Gc.top_heap_words),
          "MB" );
      (* The highest percentile with at least ten samples beyond it. *)
      let q = if count >= 20 then 100 * (count - 10) / count else 0 in
      if q > 50 then
        emit ~samples:count
          ( Printf.sprintf "instance_ms_p%d" q,
            Stats.percentile (float_of_int q) ms,
            "ms" );
      [
        ("setup_s", Stats.median !setups, List.length !setups);
        ("instance_ms_p50", Stats.median ms, count);
        ("work_per_s", Stats.median !rates, count);
        ("alloc_mb", mb (!alloc /. float_of_int (max 1 count)), count);
      ]
    end
    else
      let traced = List.length !rows in
      let mean name =
        match List.filter_map (List.assoc_opt name) !rows with
        | [] -> 0.
        | vs -> Stats.mean vs
      in
      List.map
        (fun (name, _) ->
          let v =
            match name with
            | "trace.instance_ms" ->
                float_of_int !traced_ns /. 1e6 /. float_of_int (max 1 traced)
            | "trace.overhead_ratio" ->
                float_of_int !traced_ns /. float_of_int (max 1 !plain_ns)
            | _ -> mean name
          in
          (name, v, traced))
        layer_metrics
  in
  let units = e2e_metrics @ layer_metrics in
  List.iter
    (fun (name, v, samples) -> emit ~samples (name, v, List.assoc name units))
    metrics;
  Option.iter (fun path -> Prof.write_jsonl path ~workload:w.name) o.spans;
  List.iter (fun p -> Printf.eprintf "%s: %s\n" w.name p) (List.rev !problems);
  let correct = !problems = [] in
  let result (name, v, _) =
    ( name,
      `Assoc [ ("value", `Float v); ("unit", `String (List.assoc name units)) ]
    )
  in
  print_endline
    (Json.to_string ~pretty:false
       (`Assoc
         [
           ("correct", `Bool correct);
           ("attempted", `Int !attempted);
           ("failed", `Int !failed);
           ("metrics", `Assoc (List.map result metrics));
         ]));
  correct

(* ---- processes ---- *)

let child_args o ~workload ~trace =
  [
    "--workload"; workload; "--seed"; string_of_int o.seed;
    "--seconds"; Printf.sprintf "%g" o.seconds;
    "--trace"; (if trace then "1" else "0");
    "--expected"; o.expected;
  ]
  @ (if o.smoke_size then [ "--size"; "smoke" ] else [])
  @ (match o.json with Some p -> [ "--json"; p ] | None -> [])
  @ match o.spans with Some p -> [ "--spans"; p ] | None -> []

let exited_ok = function Unix.WEXITED 0 -> true | _ -> false

(* Each workload in its own fresh process: nothing a workload allocates or
   warms survives into the next one. *)
let run_children o =
  List.fold_left
    (fun ok workload ->
      flush stdout;
      let args = child_args o ~workload ~trace:o.trace in
      let pid =
        Unix.create_process Sys.executable_name
          (Array.of_list (Sys.executable_name :: args))
          Unix.stdin Unix.stdout Unix.stderr
      in
      let _, status = Unix.waitpid [] pid in
      exited_ok status && ok)
    true o.workloads

(* Tier-1 smoke: every workload at toy size, untraced then traced, each in
   its own process; every metric BENCHMARK.json names must be printed, in
   the unit it declares, and be exactly the result line's metrics. *)
let smoke o ~benchmark =
  let bench =
    let text = In_channel.with_open_bin benchmark In_channel.input_all in
    match Json.of_string text with Ok j -> j | Error e -> failwith e
  in
  let declared ~trace =
    Option.bind
      (Json.member (if trace then "per_layer" else "end_to_end") bench)
      Json.to_list
    |> Option.value ~default:[]
    |> List.filter_map (fun m ->
           let field k = Option.bind (Json.member k m) Json.to_string_opt in
           match (field "name", field "unit") with
           | Some n, Some u -> Some (n, u)
           | _ -> None)
  in
  let result_keys lines =
    match List.rev (List.filter (fun l -> l <> "") lines) with
    | last :: _ -> (
        match
          Option.bind
            (Result.to_option (Json.of_string last))
            (Json.member "metrics")
        with
        | Some (`Assoc kvs) -> List.sort compare (List.map fst kvs)
        | _ -> [])
    | [] -> []
  in
  let printed = Hashtbl.create 64 in
  let run ~trace (w : Workload.t) =
    let o = { o with seconds = 0.; seed = 1; smoke_size = true } in
    let args = child_args o ~workload:w.name ~trace in
    let ic =
      Unix.open_process_args_in Sys.executable_name
        (Array.of_list (Sys.executable_name :: args))
    in
    let lines = In_channel.input_all ic |> String.split_on_char '\n' in
    let status = Unix.close_process_in ic in
    List.iter
      (fun l ->
        match String.split_on_char ' ' l with
        | [ _; metric; _; unit ] -> Hashtbl.replace printed (trace, metric) unit
        | _ -> ())
      lines;
    let skipped = List.mem (w.name ^ " skipped") lines in
    let good =
      exited_ok status
      && (skipped
         || result_keys lines
            = List.sort compare (List.map fst (declared ~trace)))
    in
    if not good then
      Printf.eprintf "smoke: %s (trace %b) failed\n" w.name trace;
    good
  in
  let runs =
    List.concat_map
      (fun trace -> List.map (run ~trace) Workloads.all)
      [ false; true ]
  in
  let missing =
    List.concat_map
      (fun trace ->
        List.filter
          (fun (name, unit) ->
            Hashtbl.find_opt printed (trace, name) <> Some unit)
          (declared ~trace))
      [ false; true ]
  in
  List.iter
    (fun (name, unit) ->
      Printf.eprintf "smoke: metric %s was never printed in %s\n" name unit)
    missing;
  List.for_all Fun.id runs && missing = []

let () =
  let workloads = ref [] and seed = ref 1 and seconds = ref 12. in
  let trace = ref 0 and json = ref None and spans = ref None in
  let size = ref "full" and smoke_mode = ref false in
  let expected = ref "bench/e2e/expected.json" in
  let benchmark = ref "BENCHMARK.json" in
  let spec =
    [
      ( "--workload",
        Arg.String (fun s -> workloads := String.split_on_char ',' s),
        "W[,W..] workloads to run (default: all, one process each)" );
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S measured seconds per workload (default 12)" );
      ( "--trace",
        Arg.Set_int trace,
        "0|1 1 reports the per-layer metrics of a traced run" );
      ( "--json",
        Arg.String (fun p -> json := Some p),
        "FILE append every metric as JSON lines" );
      ( "--spans",
        Arg.String (fun p -> spans := Some p),
        "FILE append the traced run's spans and counters as JSON lines" );
      ( "--size",
        Arg.Set_string size,
        "full|smoke workload size (default full)" );
      ("--expected", Arg.Set_string expected, "FILE pinned counts for seed 1");
      ( "--benchmark",
        Arg.Set_string benchmark,
        "FILE BENCHMARK.json, for --smoke" );
      ( "--smoke",
        Arg.Set smoke_mode,
        " run every workload at toy size and check metric names" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--workload W,..] [--seed N] [--seconds S] [--trace 0|1] \
     [--json FILE] [--spans FILE]";
  let known = List.map (fun (w : Workload.t) -> w.name) Workloads.all in
  let workloads = if !workloads = [] then known else !workloads in
  let bad = List.filter (fun w -> not (List.mem w known)) workloads in
  let flags_ok =
    List.mem !size [ "full"; "smoke" ] && List.mem !trace [ 0; 1 ]
  in
  if bad <> [] || not flags_ok then begin
    prerr_endline
      ("unknown workload, --size (full|smoke) or --trace (0|1): "
      ^ String.concat "," bad);
    exit 2
  end;
  let o =
    {
      workloads;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      smoke_size = String.equal !size "smoke";
      json = !json;
      spans = !spans;
      expected = !expected;
    }
  in
  let ok =
    if !smoke_mode then smoke o ~benchmark:!benchmark
    else
      match workloads with
      | [ name ] -> (
          let w =
            List.find
              (fun (w : Workload.t) -> String.equal w.name name)
              Workloads.all
          in
          match w.available with
          | Error reason ->
              Printf.printf "%s skipped\n" name;
              Printf.eprintf "%s: %s\n" name reason;
              true
          | Ok () -> run_one o w)
      | _ -> run_children o
  in
  exit (if ok then 0 else 1)
