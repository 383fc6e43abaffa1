open Ubpa_util

type count = { msgs : int; bits : int }

let zero = { msgs = 0; bits = 0 }

(* One breakdown: an int-keyed column. Keys (rounds, raw node ids) get
   dense slots from an {!Interner}; the counters live in two int arrays
   indexed by slot, so bumping a key seen before is a table probe and two
   array writes — no allocation, no polymorphic hash. A slot exists iff
   its key was recorded or loaded, which keeps a row with zero counts (a
   legal [of_json] input) distinct from an absent one. The last key's
   slot is cached: a broadcast fan-out repeats its sender and round. *)
module Column = struct
  type t = {
    index : Interner.t;
    mutable c_msgs : int array;
    mutable c_bits : int array;
    mutable last_key : int;
    mutable last_slot : int;  (* -1 until the first key *)
  }

  let create () =
    {
      index = Interner.create ();
      c_msgs = Array.make 16 0;
      c_bits = Array.make 16 0;
      last_key = 0;
      last_slot = -1;
    }

  let grow a n =
    let g = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 g 0 (Array.length a);
    g

  let slot c key =
    if c.last_slot >= 0 && c.last_key = key then c.last_slot
    else begin
      let s = Interner.intern c.index (Node_id.of_int key) in
      if s >= Array.length c.c_msgs then begin
        c.c_msgs <- grow c.c_msgs (s + 1);
        c.c_bits <- grow c.c_bits (s + 1)
      end;
      c.last_key <- key;
      c.last_slot <- s;
      s
    end

  let bump c key bits =
    let s = slot c key in
    Array.unsafe_set c.c_msgs s (Array.unsafe_get c.c_msgs s + 1);
    Array.unsafe_set c.c_bits s (Array.unsafe_get c.c_bits s + bits)

  (* [of_json]: a later row for the same key replaces the earlier one. *)
  let set c key (n : count) =
    let s = slot c key in
    c.c_msgs.(s) <- n.msgs;
    c.c_bits.(s) <- n.bits

  let find c key =
    match Interner.find_opt c.index (Node_id.of_int key) with
    | Some s -> { msgs = c.c_msgs.(s); bits = c.c_bits.(s) }
    | None -> zero

  (* Ascending by key. *)
  let bindings c =
    let acc = ref [] in
    Interner.iter c.index (fun s id ->
        acc :=
          (Node_id.to_int id, { msgs = c.c_msgs.(s); bits = c.c_bits.(s) })
          :: !acc);
    List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc
end

(* Per-kind counters, keyed by string contents. A run has a handful of
   kinds, so a miss scans them with [String.equal]; the common case — the
   same physical kind string as the last record — skips even that. *)
type kinds = {
  mutable names : string array;
  mutable k_msgs : int array;
  mutable k_bits : int array;
  mutable k_len : int;
  mutable last_kind : string;
  mutable last_kslot : int;  (* -1 until the first kind *)
}

type t = {
  mutable total_msgs : int;
  mutable total_bits : int;
  rounds : Column.t;
  nodes : Column.t; (* recipient, keyed by Node_id.to_int *)
  senders : Column.t; (* sender, keyed by Node_id.to_int *)
  kinds : kinds;
}

let create () =
  {
    total_msgs = 0;
    total_bits = 0;
    rounds = Column.create ();
    nodes = Column.create ();
    senders = Column.create ();
    kinds =
      {
        names = Array.make 8 "";
        k_msgs = Array.make 8 0;
        k_bits = Array.make 8 0;
        k_len = 0;
        last_kind = "";
        last_kslot = -1;
      };
  }

let rec scan_kinds k kind i =
  if i >= k.k_len then -1
  else if String.equal (Array.unsafe_get k.names i) kind then i
  else scan_kinds k kind (i + 1)

let kind_slot k kind =
  if k.last_kslot >= 0 && k.last_kind == kind then k.last_kslot
  else begin
    let s = scan_kinds k kind 0 in
    let s =
      if s >= 0 then s
      else begin
        let s = k.k_len in
        if s >= Array.length k.names then begin
          let grow a dummy =
            let g = Array.make (2 * Array.length a) dummy in
            Array.blit a 0 g 0 s;
            g
          in
          k.names <- grow k.names "";
          k.k_msgs <- grow k.k_msgs 0;
          k.k_bits <- grow k.k_bits 0
        end;
        k.names.(s) <- kind;
        k.k_len <- s + 1;
        s
      end
    in
    k.last_kind <- kind;
    k.last_kslot <- s;
    s
  end

let record t ~round ~sender ~recipient ~kind ~bits =
  t.total_msgs <- t.total_msgs + 1;
  t.total_bits <- t.total_bits + bits;
  Column.bump t.rounds round bits;
  Column.bump t.nodes (Node_id.to_int recipient) bits;
  Column.bump t.senders (Node_id.to_int sender) bits;
  let k = t.kinds in
  let s = kind_slot k kind in
  Array.unsafe_set k.k_msgs s (Array.unsafe_get k.k_msgs s + 1);
  Array.unsafe_set k.k_bits s (Array.unsafe_get k.k_bits s + bits)

let messages t = t.total_msgs
let bits t = t.total_bits
let per_round t = Column.bindings t.rounds
let to_ids = List.map (fun (k, v) -> (Node_id.of_int k, v))
let per_node t = to_ids (Column.bindings t.nodes)
let per_sender t = to_ids (Column.bindings t.senders)

let per_kind t =
  let k = t.kinds in
  List.init k.k_len (fun s ->
      (k.names.(s), { msgs = k.k_msgs.(s); bits = k.k_bits.(s) }))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let received_by t id = Column.find t.nodes (Node_id.to_int id)
let sent_by t id = Column.find t.senders (Node_id.to_int id)

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
      (List.map fst (Column.bindings t.nodes @ Column.bindings t.senders))
  in
  List.fold_left
    (fun acc k ->
      let b = budget_of t (Node_id.of_int k) in
      if b.bits > acc.bits then b else acc)
    zero ids

let equal a b =
  a.total_msgs = b.total_msgs
  && a.total_bits = b.total_bits
  && per_round a = per_round b
  && per_node a = per_node b
  && per_sender a = per_sender b
  && per_kind a = per_kind b

let pp ppf t =
  Format.fprintf ppf "wire: %d msgs, %d bits%a" t.total_msgs t.total_bits
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
      ("msgs", `Int t.total_msgs);
      ("bits", `Int t.total_bits);
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
  t.total_msgs <- msgs;
  t.total_bits <- bits;
  List.iter (fun (r, c) -> Column.set t.rounds r c) rounds;
  List.iter (fun (n, c) -> Column.set t.nodes n c) nodes;
  List.iter (fun (s, c) -> Column.set t.senders s c) senders;
  List.iter
    (fun (name, c) ->
      let s = kind_slot t.kinds name in
      t.kinds.k_msgs.(s) <- c.msgs;
      t.kinds.k_bits.(s) <- c.bits)
    kinds;
  Ok t
