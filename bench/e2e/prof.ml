(* Bench-owned tracing: per-layer counters fed by the Timed wrappers, and
   spans opened around the benchmark's calls into each layer. Nothing
   under lib/ is instrumented; the layers are observed through their
   public interfaces only. *)

external now_ns : unit -> (int[@untagged])
  = "e2e_now_ns_byte" "e2e_now_ns"
[@@noalloc]

(* Counters are atomic because the runtime steps its protocol instances
   on one domain per node. *)
type counter = { calls : int Atomic.t; ns : int Atomic.t }

let counter () = { calls = Atomic.make 0; ns = Atomic.make 0 }

let add c ~since =
  let dt = now_ns () - since in
  ignore (Atomic.fetch_and_add c.calls 1);
  ignore (Atomic.fetch_and_add c.ns dt)

let tally c n = ignore (Atomic.fetch_and_add c.calls n)

let step = counter ()
let inbox_msgs = counter ()
let sends = counter ()
let equal = counter ()
let sizing = counter ()
let act = counter ()
let byz_sends = counter ()
let copy_state = counter ()
let state_key = counter ()
let properties = counter ()

let counters =
  [
    ("protocol.step", step);
    ("protocol.inbox_msgs", inbox_msgs);
    ("protocol.sends", sends);
    ("protocol.equal", equal);
    ("wire.sizing", sizing);
    ("adversary.act", act);
    ("adversary.sends", byz_sends);
    ("checker.copy_state", copy_state);
    ("checker.state_key", state_key);
    ("checker.properties", properties);
  ]

let reset () =
  List.iter
    (fun (_, c) ->
      Atomic.set c.calls 0;
      Atomic.set c.ns 0)
    counters

type snapshot = (string * (int * int)) list
(** [(counter, (calls, ns))] for every counter. *)

let snapshot () =
  List.map (fun (n, c) -> (n, (Atomic.get c.calls, Atomic.get c.ns))) counters

let calls (s : snapshot) name = fst (List.assoc name s)
let ns (s : snapshot) name = snd (List.assoc name s)

(* Set while a Byzantine strategy acts: the protocol's equality called from
   inside a strategy is then already inside the strategy's time. Only the
   single-domain simulator runs strategies. *)
let in_act = ref false

(* Set while a traced simulator instance runs: the wrappers then record
   every send so the delivery layer can be replayed afterwards. *)
let recording = ref false

(* ---- spans ---- *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  instance : int;
  start_ns : int;
  end_ns : int;
}

let tracing = ref false
let instance = ref 0
let spans : span list ref = ref []
let open_spans = ref []
let next_id = ref 0
let counter_log : (int * snapshot) list ref = ref []

let span name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !open_spans with p :: _ -> p | [] -> 0 in
    open_spans := id :: !open_spans;
    let start_ns = now_ns () in
    let close () =
      open_spans := List.tl !open_spans;
      spans :=
        { id; name; parent; instance = !instance; start_ns; end_ns = now_ns () }
        :: !spans
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

let instance_spans k = List.filter (fun s -> s.instance = k) !spans
let dur s = s.end_ns - s.start_ns

let total_ns spans name =
  List.fold_left
    (fun acc s -> if String.equal s.name name then acc + dur s else acc)
    0 spans

let log_counters k snap = counter_log := (k, snap) :: !counter_log

(* Spans and per-instance counter totals, one JSON object per line. *)
let write_jsonl path ~workload =
  let oc = open_out_gen [ Open_append; Open_creat; Open_text ] 0o644 path in
  let line j =
    output_string oc (Ubpa_util.Json.to_string ~pretty:false j ^ "\n")
  in
  List.iter
    (fun s ->
      line
        (`Assoc
          [
            ("type", `String "span");
            ("workload", `String workload);
            ("instance", `Int s.instance);
            ("id", `Int s.id);
            ("parent", `Int s.parent);
            ("name", `String s.name);
            ("start_ns", `Int s.start_ns);
            ("end_ns", `Int s.end_ns);
          ]))
    (List.rev !spans);
  List.iter
    (fun (k, snap) ->
      List.iter
        (fun (name, (calls, ns)) ->
          line
            (`Assoc
              [
                ("type", `String "counter");
                ("workload", `String workload);
                ("instance", `Int k);
                ("name", `String name);
                ("calls", `Int calls);
                ("ns", `Int ns);
              ]))
        snap)
    (List.rev !counter_log);
  close_out oc
