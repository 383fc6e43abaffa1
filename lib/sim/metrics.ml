open Ubpa_util

(* One [wire_bits_per_round] entry. Its bits are mutable so that a run of
   records in the same round updates the head in place. *)
type round_bits = { r_round : int; mutable r_bits : int }

type t = {
  mutable rounds : int;
  mutable sends_correct : int;
  mutable sends_byzantine : int;
  mutable delivered : int;
  mutable wire_msgs : int;
  mutable wire_bits : int;
  mutable bits_per_round : round_bits list; (* reversed *)
  mutable per_round : (int * int) list; (* reversed *)
  mutable round_times : (int * float) list; (* reversed, ms *)
  mutable elapsed_ms : float;
  by_kind : (string, int) Hashtbl.t;
}

let create () =
  {
    rounds = 0;
    sends_correct = 0;
    sends_byzantine = 0;
    delivered = 0;
    wire_msgs = 0;
    wire_bits = 0;
    bits_per_round = [];
    per_round = [];
    round_times = [];
    elapsed_ms = 0.;
    by_kind = Hashtbl.create 8;
  }

let rounds t = t.rounds
let sends_correct t = t.sends_correct
let sends_byzantine t = t.sends_byzantine
let delivered t = t.delivered
let wire_msgs t = t.wire_msgs
let wire_bits t = t.wire_bits
let delivered_per_round t = List.rev t.per_round
let wire_bits_per_round t =
  List.rev_map (fun e -> (e.r_round, e.r_bits)) t.bits_per_round
let elapsed_ms t = t.elapsed_ms
let round_times_ms t = List.rev t.round_times
let tick_round t = t.rounds <- t.rounds + 1

let record_send t ~byzantine =
  if byzantine then t.sends_byzantine <- t.sends_byzantine + 1
  else t.sends_correct <- t.sends_correct + 1

let record_kind t kind =
  Hashtbl.replace t.by_kind kind
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.by_kind kind))

let kinds t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.by_kind []
  |> List.sort compare

let record_delivered t ~round n =
  t.delivered <- t.delivered + n;
  match t.per_round with
  | (r, c) :: rest when r = round -> t.per_round <- (r, c + n) :: rest
  | _ -> t.per_round <- (round, n) :: t.per_round

(* Called once per accepted delivery: only a round change allocates (a
   round that comes back after a later one opens a new entry). *)
let record_wire t ~round ~bits =
  t.wire_msgs <- t.wire_msgs + 1;
  t.wire_bits <- t.wire_bits + bits;
  match t.bits_per_round with
  | e :: _ when e.r_round = round -> e.r_bits <- e.r_bits + bits
  | l -> t.bits_per_round <- { r_round = round; r_bits = bits } :: l

let record_round_time t ~round ms =
  t.elapsed_ms <- t.elapsed_ms +. ms;
  match t.round_times with
  | (r, acc) :: rest when r = round -> t.round_times <- (r, acc +. ms) :: rest
  | _ -> t.round_times <- (round, ms) :: t.round_times

let pp ppf t =
  Format.fprintf ppf "rounds=%d sends(correct=%d byz=%d) delivered=%d"
    t.rounds t.sends_correct t.sends_byzantine t.delivered

let to_json t : Json.t =
  `Assoc
    [
      ("rounds", `Int t.rounds);
      ("sends_correct", `Int t.sends_correct);
      ("sends_byzantine", `Int t.sends_byzantine);
      ("delivered", `Int t.delivered);
      ("wire_msgs", `Int t.wire_msgs);
      ("wire_bits", `Int t.wire_bits);
      ("elapsed_ms", `Float t.elapsed_ms);
      ( "delivered_per_round",
        `List
          (List.map
             (fun (r, c) -> `List [ `Int r; `Int c ])
             (delivered_per_round t)) );
      ( "wire_bits_per_round",
        `List
          (List.map
             (fun (r, b) -> `List [ `Int r; `Int b ])
             (wire_bits_per_round t)) );
      ( "round_times_ms",
        `List
          (List.map
             (fun (r, ms) -> `List [ `Int r; `Float ms ])
             (round_times_ms t)) );
      ("kinds", `Assoc (List.map (fun (k, v) -> (k, `Int v)) (kinds t)));
    ]

let of_json (j : Json.t) =
  let ( let* ) r f = Result.bind r f in
  let int_field name =
    match Option.bind (Json.member name j) Json.to_int with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "Metrics.of_json: missing int %S" name)
  in
  let float_field name =
    match Option.bind (Json.member name j) Json.to_float with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "Metrics.of_json: missing float %S" name)
  in
  let pair_list name of_snd =
    match Option.bind (Json.member name j) Json.to_list with
    | None -> Error (Printf.sprintf "Metrics.of_json: missing list %S" name)
    | Some items ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match Json.to_list item with
            | Some [ r; v ] -> (
                match (Json.to_int r, of_snd v) with
                | Some r, Some v -> Ok ((r, v) :: acc)
                | _ ->
                    Error (Printf.sprintf "Metrics.of_json: bad %S row" name))
            | _ -> Error (Printf.sprintf "Metrics.of_json: bad %S row" name))
          (Ok []) items
        |> Result.map List.rev
  in
  let* rounds = int_field "rounds" in
  let* sends_correct = int_field "sends_correct" in
  let* sends_byzantine = int_field "sends_byzantine" in
  let* delivered = int_field "delivered" in
  (* Wire accounting postdates the v1 schema; absent fields mean an old
     recording with no wire data, not a malformed document. *)
  let opt_int name =
    Option.value ~default:0 (Option.bind (Json.member name j) Json.to_int)
  in
  let wire_msgs = opt_int "wire_msgs" in
  let wire_bits = opt_int "wire_bits" in
  let* bits_per_round =
    match Json.member "wire_bits_per_round" j with
    | None -> Ok []
    | Some _ -> pair_list "wire_bits_per_round" Json.to_int
  in
  let* elapsed_ms = float_field "elapsed_ms" in
  let* per_round = pair_list "delivered_per_round" Json.to_int in
  let* round_times = pair_list "round_times_ms" Json.to_float in
  let by_kind = Hashtbl.create 8 in
  (match Json.member "kinds" j with
  | Some (`Assoc fields) ->
      List.iter
        (fun (k, v) ->
          match Json.to_int v with
          | Some c -> Hashtbl.replace by_kind k c
          | None -> ())
        fields
  | _ -> ());
  Ok
    {
      rounds;
      sends_correct;
      sends_byzantine;
      delivered;
      wire_msgs;
      wire_bits;
      bits_per_round =
        List.rev_map (fun (r, b) -> { r_round = r; r_bits = b }) bits_per_round;
      per_round = List.rev per_round;
      round_times = List.rev round_times;
      elapsed_ms;
      by_kind;
    }
