open Ubpa_util

type kind = Join | Leave | Send | Byz_send | Output | Halt | Fault | Engine

let kind_to_string = function
  | Join -> "join"
  | Leave -> "leave"
  | Send -> "send"
  | Byz_send -> "byz-send"
  | Output -> "output"
  | Halt -> "halt"
  | Fault -> "fault"
  | Engine -> "engine"

let kind_of_string = function
  | "join" -> Some Join
  | "leave" -> Some Leave
  | "send" -> Some Send
  | "byz-send" -> Some Byz_send
  | "output" -> Some Output
  | "halt" -> Some Halt
  | "fault" -> Some Fault
  | "engine" -> Some Engine
  | _ -> None

type event = { round : int; node : Node_id.t option; kind : kind; what : string }

type t = {
  enabled : bool;
  live : bool;
  mutable events : event list;
  mutable taps : (event -> unit) list;  (** reversed subscription order *)
  mutable out : (Buffer.t * Format.formatter) option;
      (** [recordf]'s buffer and formatter, made on first use *)
}

let create ?(live = false) () =
  { enabled = true; live; events = []; taps = []; out = None }

let disabled = { enabled = false; live = false; events = []; taps = []; out = None }

let subscribe t f =
  if not t.enabled then
    invalid_arg "Trace.subscribe: the shared disabled trace records nothing";
  t.taps <- f :: t.taps

let pp_event ppf e =
  let pp_node ppf = function
    | None -> Fmt.string ppf "engine"
    | Some id -> Node_id.pp ppf id
  in
  Fmt.pf ppf "[r%03d %a] %s" e.round pp_node e.node e.what

let record t ~round ?node ?(kind = Engine) what =
  if t.enabled then begin
    let e = { round; node; kind; what } in
    t.events <- e :: t.events;
    if t.live then Fmt.epr "%a@." pp_event e;
    match t.taps with
    | [] -> ()
    | taps -> List.iter (fun f -> f e) (List.rev taps)
  end

(* One buffer and formatter per trace, not a fresh pair per event.
   Flushing resets the formatter's state, so each event's bytes are what
   a fresh formatter would print; the buffer is emptied before [record]
   runs, so a subscriber may record in turn. *)
let recordf t ~round ?node ?kind fmt =
  if t.enabled then begin
    let buf, ppf =
      match t.out with
      | Some out -> out
      | None ->
          let buf = Buffer.create 128 in
          let out = (buf, Format.formatter_of_buffer buf) in
          t.out <- Some out;
          out
    in
    Format.kfprintf
      (fun ppf ->
        Format.pp_print_flush ppf ();
        let what = Buffer.contents buf in
        Buffer.clear buf;
        record t ~round ?node ?kind what)
      ppf fmt
  end
  else Format.ikfprintf ignore Format.str_formatter fmt

let enabled t = t.enabled
let events t = List.rev t.events
let find t ~f = List.find_opt f (events t)

let of_events evs =
  let t = create () in
  List.iter (fun e -> record t ~round:e.round ?node:e.node ~kind:e.kind e.what) evs;
  t

let equal_event a b =
  a.round = b.round
  && Option.equal Node_id.equal a.node b.node
  && a.kind = b.kind
  && String.equal a.what b.what

type diff = {
  first_divergence : (int * event option * event option) option;
  kind_counts : (string * int * int) list;
  length_a : int;
  length_b : int;
}

let diff_events a b =
  let counts evs =
    let h = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let k = kind_to_string e.kind in
        Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k)))
      evs;
    h
  in
  let ca = counts a and cb = counts b in
  let kinds =
    List.filter
      (fun k -> Hashtbl.mem ca k || Hashtbl.mem cb k)
      (List.map kind_to_string
         [ Join; Leave; Send; Byz_send; Output; Halt; Fault; Engine ])
  in
  let kind_counts =
    List.map
      (fun k ->
        ( k,
          Option.value ~default:0 (Hashtbl.find_opt ca k),
          Option.value ~default:0 (Hashtbl.find_opt cb k) ))
      kinds
  in
  let rec first ix a b =
    match (a, b) with
    | [], [] -> None
    | ea :: _, [] -> Some (ix, Some ea, None)
    | [], eb :: _ -> Some (ix, None, Some eb)
    | ea :: ra, eb :: rb ->
        if equal_event ea eb then first (ix + 1) ra rb
        else Some (ix, Some ea, Some eb)
  in
  {
    first_divergence = first 0 a b;
    kind_counts;
    length_a = List.length a;
    length_b = List.length b;
  }

let equal_events a b = (diff_events a b).first_divergence = None
let pp ppf t = Fmt.pf ppf "%a" (Fmt.list ~sep:Fmt.cut pp_event) (events t)

let event_to_json e : Json.t =
  `Assoc
    [
      ("round", `Int e.round);
      ( "node",
        match e.node with
        | None -> `Null
        | Some id -> `Int (Node_id.to_int id) );
      ("kind", `String (kind_to_string e.kind));
      ("what", `String e.what);
    ]

let event_of_json j =
  match
    ( Option.bind (Json.member "round" j) Json.to_int,
      Json.member "node" j,
      Option.bind (Json.member "kind" j) Json.to_string_opt,
      Option.bind (Json.member "what" j) Json.to_string_opt )
  with
  | Some round, Some node, Some kind, Some what -> (
      let node =
        match node with `Int i -> Some (Node_id.of_int i) | _ -> None
      in
      match kind_of_string kind with
      | Some kind -> Ok { round; node; kind; what }
      | None -> Error (Printf.sprintf "Trace.event_of_json: bad kind %S" kind))
  | _ -> Error "Trace.event_of_json: missing field"

let to_json t : Json.t = `List (List.map event_to_json (events t))

let to_jsonl t =
  String.concat ""
    (List.map
       (fun e -> Json.to_string ~pretty:false (event_to_json e) ^ "\n")
       (events t))

let of_jsonl s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go (lineno + 1) acc rest
        else
          let parsed =
            Result.bind (Json.of_string line) (fun j -> event_of_json j)
          in
          (match parsed with
          | Ok e -> go (lineno + 1) (e :: acc) rest
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 [] lines
