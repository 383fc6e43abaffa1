(* Executable spec of [Ubpa_obs.Wire]: the accumulator as four
   polymorphic [Hashtbl]s of immutable counts, rebuilt on every record.
   Every reader of the array-backed accumulator must equal this one, order
   included, and its [of_json] keeps this one's rule that a duplicated row
   replaces the earlier one.

   [Metrics_wire] below is the same for [Metrics.record_wire]: the
   reversed (round, bits) list whose head is rebuilt on every record. *)

open Ubpa_util

type count = Ubpa_obs.Wire.count = { msgs : int; bits : int }

type t = {
  mutable total : count;
  rounds : (int, count) Hashtbl.t;
  nodes : (int, count) Hashtbl.t; (* recipient, keyed by Node_id.to_int *)
  senders : (int, count) Hashtbl.t; (* sender, keyed by Node_id.to_int *)
  kinds : (string, count) Hashtbl.t;
}

let create () =
  {
    total = { msgs = 0; bits = 0 };
    rounds = Hashtbl.create 32;
    nodes = Hashtbl.create 32;
    senders = Hashtbl.create 32;
    kinds = Hashtbl.create 8;
  }

let bump tbl key bits =
  let prior =
    match Hashtbl.find_opt tbl key with
    | Some c -> c
    | None -> { msgs = 0; bits = 0 }
  in
  Hashtbl.replace tbl key { msgs = prior.msgs + 1; bits = prior.bits + bits }

let record t ~round ~sender ~recipient ~kind ~bits =
  t.total <- { msgs = t.total.msgs + 1; bits = t.total.bits + bits };
  bump t.rounds round bits;
  bump t.nodes (Node_id.to_int recipient) bits;
  bump t.senders (Node_id.to_int sender) bits;
  bump t.kinds kind bits

let messages t = t.total.msgs
let bits t = t.total.bits

let sorted_bindings tbl cmp =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> cmp a b)

let per_round t = sorted_bindings t.rounds Int.compare

let per_node t =
  List.map
    (fun (k, v) -> (Node_id.of_int k, v))
    (sorted_bindings t.nodes Int.compare)

let per_sender t =
  List.map
    (fun (k, v) -> (Node_id.of_int k, v))
    (sorted_bindings t.senders Int.compare)

let per_kind t = sorted_bindings t.kinds String.compare

let zero = { msgs = 0; bits = 0 }

let received_by t id =
  Option.value ~default:zero (Hashtbl.find_opt t.nodes (Node_id.to_int id))

let sent_by t id =
  Option.value ~default:zero (Hashtbl.find_opt t.senders (Node_id.to_int id))

(* Per-node bit budget: what node [id] put on the wire plus what the wire
   delivered to it. This is the per-processor cost the sub-quadratic
   experiments bound — a node that only receives still pays for every
   accepted delivery, and a committee member that fans a report out to
   Θ(n/√n · log n) samplers pays on the send side. *)
let budget_of t id =
  let r = received_by t id and s = sent_by t id in
  { msgs = r.msgs + s.msgs; bits = r.bits + s.bits }

let max_budget t =
  let ids =
    List.sort_uniq Int.compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) t.nodes []
      @ Hashtbl.fold (fun k _ acc -> k :: acc) t.senders [])
  in
  List.fold_left
    (fun acc k ->
      let b = budget_of t (Node_id.of_int k) in
      if b.bits > acc.bits then b else acc)
    zero ids

let equal a b =
  a.total = b.total
  && per_round a = per_round b
  && sorted_bindings a.nodes Int.compare = sorted_bindings b.nodes Int.compare
  && sorted_bindings a.senders Int.compare
     = sorted_bindings b.senders Int.compare
  && per_kind a = per_kind b

let pp ppf t =
  Format.fprintf ppf "wire: %d msgs, %d bits%a" t.total.msgs t.total.bits
    (fun ppf kinds ->
      List.iter
        (fun (k, c) -> Format.fprintf ppf " %s=%d/%db" k c.msgs c.bits)
        kinds)
    (per_kind t)

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let count_json c : Json.t = `List [ `Int c.msgs; `Int c.bits ]

let to_json t : Json.t =
  let id_rows assoc =
    `List
      (List.map
         (fun (id, c) ->
           `List [ `Int (Node_id.to_int id); `Int c.msgs; `Int c.bits ])
         assoc)
  in
  `Assoc
    [
      ("msgs", `Int t.total.msgs);
      ("bits", `Int t.total.bits);
      ( "per_round",
        `List
          (List.map
             (fun (r, c) -> `List [ `Int r; `Int c.msgs; `Int c.bits ])
             (per_round t)) );
      ("per_node", id_rows (per_node t));
      ("per_sender", id_rows (per_sender t));
      ("per_kind", `Assoc (List.map (fun (k, c) -> (k, count_json c)) (per_kind t)));
    ]

let of_json (j : Json.t) =
  let ( let* ) = Result.bind in
  let int_field name =
    match Option.bind (Json.member name j) Json.to_int with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "Wire.of_json: missing int %S" name)
  in
  let triple_list name =
    match Option.bind (Json.member name j) Json.to_list with
    | None -> Error (Printf.sprintf "Wire.of_json: missing list %S" name)
    | Some items ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match Option.map (List.filter_map Json.to_int) (Json.to_list item) with
            | Some [ k; msgs; bits ] -> Ok ((k, { msgs; bits }) :: acc)
            | _ -> Error (Printf.sprintf "Wire.of_json: bad %S row" name))
          (Ok []) items
        |> Result.map List.rev
  in
  let* msgs = int_field "msgs" in
  let* bits = int_field "bits" in
  let* rounds = triple_list "per_round" in
  let* nodes = triple_list "per_node" in
  (* Wire JSON written before the per-sender breakdown existed has no
     "per_sender" field; load it with empty sender counters rather than
     rejecting the document. *)
  let* senders =
    match Json.member "per_sender" j with
    | None -> Ok []
    | Some _ -> triple_list "per_sender"
  in
  let* kinds =
    match Json.member "per_kind" j with
    | Some (`Assoc fields) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match Option.map (List.filter_map Json.to_int) (Json.to_list v) with
            | Some [ m; b ] -> Ok ((k, { msgs = m; bits = b }) :: acc)
            | _ -> Error (Printf.sprintf "Wire.of_json: bad kind %S" k))
          (Ok []) fields
        |> Result.map List.rev
    | _ -> Error "Wire.of_json: missing \"per_kind\""
  in
  let t = create () in
  t.total <- { msgs; bits };
  List.iter (fun (r, c) -> Hashtbl.replace t.rounds r c) rounds;
  List.iter (fun (n, c) -> Hashtbl.replace t.nodes n c) nodes;
  List.iter (fun (s, c) -> Hashtbl.replace t.senders s c) senders;
  List.iter (fun (k, c) -> Hashtbl.replace t.kinds k c) kinds;
  Ok t

module Metrics_wire = struct
  type t = {
    mutable wire_msgs : int;
    mutable wire_bits : int;
    mutable bits_per_round : (int * int) list; (* reversed *)
  }

  let create () = { wire_msgs = 0; wire_bits = 0; bits_per_round = [] }

  let record_wire t ~round ~bits =
    t.wire_msgs <- t.wire_msgs + 1;
    t.wire_bits <- t.wire_bits + bits;
    match t.bits_per_round with
    | (r, acc) :: rest when r = round ->
        t.bits_per_round <- (r, acc + bits) :: rest
    | _ -> t.bits_per_round <- (round, bits) :: t.bits_per_round

  let wire_bits_per_round t = List.rev t.bits_per_round
end
