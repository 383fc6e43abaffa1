(* Wire accounting at counter cost: the array-backed [Wire] and the
   in-place [Metrics.record_wire] against their executable specs
   (wire_reference.ml), the allocation guarantee of a repeated record,
   and the delivery hook's sizing memo (one [encoded_bits] call per
   accepted record, on both delivery cores). *)

open Ubpa_util
open Ubpa_sim
open Ubpa_obs
open Helpers
module Ref = Wire_reference

let id = Node_id.of_int

(* ----- random record streams ----- *)

type rec_ = {
  round : int;
  sender : Node_id.t;
  recipient : Node_id.t;
  kind : string;
  bits : int;
}

(* A fresh string with the contents of [s]: equal, never [==]. *)
let fresh s = Bytes.to_string (Bytes.of_string s)

(* Rounds repeat, advance and go back; ids are scattered over a wide
   range (a few negative); kinds come from a small pool, sometimes as a
   physical copy of the pooled string. *)
let random_stream rng =
  let ids =
    List.init
      (1 + Rng.int rng 8)
      (fun _ ->
        let raw = Rng.int rng 1_000_000_000 in
        id (if Rng.int rng 6 = 0 then -1 - (raw mod 1000) else raw))
  in
  let kinds = [ "echo"; "vote"; "msg"; "" ] in
  let round = ref (Rng.int rng 4) in
  List.init (Rng.int rng 120) (fun _ ->
      (match Rng.int rng 6 with
      | 0 | 1 -> incr round
      | 2 -> round := Rng.int rng 8 - 1
      | _ -> ());
      let k = Rng.pick rng kinds in
      {
        round = !round;
        sender = Rng.pick rng ids;
        recipient = Rng.pick rng ids;
        kind = (if Rng.bool rng then fresh k else k);
        bits = Rng.int rng 200;
      })

let feed stream =
  let w = Wire.create () and r = Ref.create () in
  List.iter
    (fun x ->
      Wire.record w ~round:x.round ~sender:x.sender ~recipient:x.recipient
        ~kind:x.kind ~bits:x.bits;
      Ref.record r ~round:x.round ~sender:x.sender ~recipient:x.recipient
        ~kind:x.kind ~bits:x.bits)
    stream;
  (w, r)

let json_text j = Json.to_string ~pretty:false j

(* Every reader of the first argument equals the reference's, asked about
   [probe] ids (seen and unseen). *)
let same_readers ~probe w r =
  Wire.messages w = Ref.messages r
  && Wire.bits w = Ref.bits r
  && Wire.per_round w = Ref.per_round r
  && Wire.per_node w = Ref.per_node r
  && Wire.per_sender w = Ref.per_sender r
  && Wire.per_kind w = Ref.per_kind r
  && List.for_all
       (fun i ->
         Wire.received_by w i = Ref.received_by r i
         && Wire.sent_by w i = Ref.sent_by r i
         && Wire.budget_of w i = Ref.budget_of r i)
       probe
  && Wire.max_budget w = Ref.max_budget r
  && String.equal
       (Format.asprintf "%a" Wire.pp w)
       (Format.asprintf "%a" Ref.pp r)
  && String.equal (json_text (Wire.to_json w)) (json_text (Ref.to_json r))

let probe_ids stream =
  id 7 :: id (-3) :: List.concat_map (fun x -> [ x.sender; x.recipient ]) stream

let prop_wire_matches_reference =
  QCheck2.Test.make ~count:300
    ~name:"wire: array columns == Hashtbl reference on random record streams"
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let s1 = random_stream rng in
      (* A second stream: a shuffle of the first (equal), or the first
         with one record's bits bumped (unequal). *)
      let s2 =
        let sh = Rng.shuffle rng s1 in
        match sh with
        | x :: rest when Rng.bool rng -> { x with bits = x.bits + 1 } :: rest
        | _ -> sh
      in
      let w1, r1 = feed s1 and w2, r2 = feed s2 in
      let roundtrip =
        match
          (Wire.of_json (Wire.to_json w1), Ref.of_json (Ref.to_json r1))
        with
        | Ok w', Ok r' ->
            same_readers ~probe:(probe_ids s1) w' r' && Wire.equal w1 w'
        | _ -> false
      in
      same_readers ~probe:(probe_ids s1) w1 r1
      && Wire.equal w1 w2 = Ref.equal r1 r2
      && roundtrip)

(* Append to each breakdown a row that repeats an existing key with other
   counts: the later row replaces the earlier one, in both. *)
let duplicate_rows (j : Json.t) =
  let dup_rows = function
    | `List (`List [ k; _; _ ] :: _ as rows) ->
        `List (rows @ [ `List [ k; `Int 3; `Int 99 ] ])
    | other -> other
  in
  match j with
  | `Assoc fields ->
      `Assoc
        (List.map
           (fun (name, v) ->
             match (name, v) with
             | ("per_round" | "per_node" | "per_sender"), _ ->
                 (name, dup_rows v)
             | "per_kind", `Assoc ((k, _) :: _ as kinds) ->
                 (name, `Assoc (kinds @ [ (k, `List [ `Int 5; `Int 17 ]) ]))
             | _ -> (name, v))
           fields)
  | other -> other

let prop_of_json_duplicate_rows =
  QCheck2.Test.make ~count:200
    ~name:"wire: of_json lets a duplicated row replace the earlier one"
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let stream = random_stream rng in
      let doc = duplicate_rows (Ref.to_json (snd (feed stream))) in
      match (Wire.of_json doc, Ref.of_json doc) with
      | Ok w, Ok r -> same_readers ~probe:(probe_ids stream) w r
      | Error _, Error _ -> true
      | _ -> false)

let test_of_json_duplicate_row_replaces () =
  let doc =
    Json.of_string_exn
      {|{"msgs": 3, "bits": 30,
         "per_round": [[1, 1, 10], [1, 2, 20]],
         "per_node": [[5, 1, 10], [5, 0, 0]],
         "per_sender": [[6, 2, 20]],
         "per_kind": {"echo": [1, 10], "echo": [2, 20]}}|}
  in
  match Wire.of_json doc with
  | Error e -> Alcotest.fail e
  | Ok w ->
      let c m b = { Wire.msgs = m; bits = b } in
      check_true "round row replaced" (Wire.per_round w = [ (1, c 2 20) ]);
      check_true "a zero row is kept, not dropped"
        (Wire.per_node w = [ (id 5, c 0 0) ]);
      check_true "kind row replaced" (Wire.per_kind w = [ ("echo", c 2 20) ])

(* ----- Metrics.record_wire ----- *)

let metrics_json_with_wire (r : Ref.Metrics_wire.t) =
  match Metrics.to_json (Metrics.create ()) with
  | `Assoc fields ->
      `Assoc
        (List.map
           (fun (name, v) ->
             match name with
             | "wire_msgs" -> (name, `Int r.wire_msgs)
             | "wire_bits" -> (name, `Int r.wire_bits)
             | "wire_bits_per_round" ->
                 ( name,
                   `List
                     (List.map
                        (fun (rd, b) -> `List [ `Int rd; `Int b ])
                        (Ref.Metrics_wire.wire_bits_per_round r)) )
             | _ -> (name, v))
           fields)
  | other -> other

let prop_metrics_wire_matches_reference =
  QCheck2.Test.make ~count:300
    ~name:"metrics: in-place record_wire == list reference on random streams"
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let m = Metrics.create () and r = Ref.Metrics_wire.create () in
      List.iter
        (fun x ->
          Metrics.record_wire m ~round:x.round ~bits:x.bits;
          Ref.Metrics_wire.record_wire r ~round:x.round ~bits:x.bits)
        (random_stream rng);
      let text = json_text (Metrics.to_json m) in
      Metrics.wire_msgs m = r.wire_msgs
      && Metrics.wire_bits m = r.wire_bits
      && Metrics.wire_bits_per_round m = Ref.Metrics_wire.wire_bits_per_round r
      && String.equal text (json_text (metrics_json_with_wire r))
      &&
      match Metrics.of_json (Metrics.to_json m) with
      | Ok m' -> String.equal text (json_text (Metrics.to_json m'))
      | Error _ -> false)

let test_metrics_returning_round_opens_entry () =
  let m = Metrics.create () in
  List.iter
    (fun (round, bits) -> Metrics.record_wire m ~round ~bits)
    [ (1, 4); (1, 4); (2, 1); (1, 2) ];
  check_true "a round that comes back starts a new entry"
    (Metrics.wire_bits_per_round m = [ (1, 8); (2, 1); (1, 2) ])

(* ----- allocation ----- *)

let test_record_repeated_key_allocates_nothing () =
  let w = Wire.create () and m = Metrics.create () in
  let src = id 40_000_017 and kind = "echo" in
  let rcpts = Array.init 5 (fun i -> id (1_000 * (i + 1))) in
  (* Every key seen once first; then the same keys, the kind passed as a
     physical copy too, so the fast path and the content scan both run. *)
  let kind_copy = fresh kind in
  Array.iter
    (fun recipient ->
      Wire.record w ~round:3 ~sender:src ~recipient ~kind ~bits:9)
    rcpts;
  Metrics.record_wire m ~round:3 ~bits:9;
  let idle = words ignore in
  let records =
    words (fun () ->
        for i = 1 to 1000 do
          Wire.record w ~round:3 ~sender:src
            ~recipient:(Array.unsafe_get rcpts (i mod 5))
            ~kind:(if i land 1 = 0 then kind else kind_copy)
            ~bits:9
        done)
  in
  let metric_records =
    words (fun () ->
        for _ = 1 to 1000 do
          Metrics.record_wire m ~round:3 ~bits:9
        done)
  in
  Alcotest.(check (float 0.)) "Wire.record: no minor words" idle records;
  Alcotest.(check (float 0.))
    "Metrics.record_wire: no minor words" idle metric_records;
  check_int "all counted" 1005 (Wire.messages w);
  check_int "metrics counted" 1001 (Metrics.wire_msgs m)

(* ----- one sizing call per accepted record ----- *)

(* Wraps a protocol so that it counts its [encoded_bits] calls. *)
module Counting (P : Protocol.S) = struct
  include P

  let sized = ref 0

  let encoded_bits m =
    incr sized;
    P.encoded_bits m
end

(* Round 1: every node sends its scripted messages, each payload a fresh
   string so that no two envelopes share one physically; then it stops in
   round 2, after the deliveries. *)
module Script = struct
  type input = (Envelope.dest * string) list
  type stimulus = Protocol.No_stimulus.t
  type output = unit
  type message = string
  type state = input

  let name = "script"
  let init ~self:_ ~round:_ ~index:_ script = script

  let step ~self:_ ~round ~stim:_ st ~inbox:_ =
    if round = 1 then
      (st, List.map (fun (d, m) -> (d, fresh m)) st, Protocol.Continue)
    else (st, [], Protocol.Stop ())

  let compare_message = String.compare
  let equal_message = String.equal
  let encoded_bits m = 8 * (1 + String.length m)
  let pp_message = Fmt.string
end

module Counted_script = Counting (Script)
module Script_net = Network.Make (Counted_script)

let test_sized_once_per_record () =
  let a = id 10 and b = id 20 and c = id 30 and d = id 40 in
  let script =
    [
      (* A broadcast, and a unicast equal to it: suppressed. *)
      ( a,
        [ (Envelope.Broadcast, "a"); (Envelope.To b, "a"); (Envelope.To c, "x") ]
      );
      (* Two unicasts, then an equal broadcast: C and D are excluded. *)
      ( b,
        [ (Envelope.To c, "b"); (Envelope.To d, "b"); (Envelope.Broadcast, "b") ]
      );
      (* A duplicated unicast. *)
      (c, [ (Envelope.To d, "c"); (Envelope.To d, "c") ]);
      (* A duplicated broadcast. *)
      (d, [ (Envelope.Broadcast, "d"); (Envelope.Broadcast, "d") ]);
    ]
  in
  (* Accepted records: A's broadcast (4 deliveries), A->C, B->C, B->D,
     B's broadcast (2), C->D, D's broadcast (4): 7 records, 14
     deliveries. *)
  let run delivery =
    Counted_script.sized := 0;
    let net =
      Script_net.create ~delivery ~classify:(fun m -> "k" ^ m) ~correct:script
        ~byzantine:[] ()
    in
    Script_net.step_round net;
    Script_net.step_round net;
    (Script_net.wire net, !Counted_script.sized)
  in
  let w_naive, sized_naive = run Delivery.Naive in
  let w_arena, sized_arena = run Delivery.Arena in
  check_int "deliveries" 14 (Wire.messages w_arena);
  check_int "reference core: one sizing per record" 7 sized_naive;
  check_int "arena core: one sizing per record" 7 sized_arena;
  check_true "wire identical across cores" (Wire.equal w_naive w_arena);
  check_true "kinds come from the memo, per record"
    (List.map fst (Wire.per_kind w_arena) = [ "ka"; "kb"; "kc"; "kd"; "kx" ])

module Counted_consensus =
  Counting (Unknown_ba.Consensus.Make (Unknown_ba.Value.Int))
module Ch = Ubpa_harness.Harness.Make (Counted_consensus)

let test_consensus_sized_per_record () =
  let ids = Ubpa_harness.Harness.make_ids ~seed:7L 7 in
  let correct = List.mapi (fun i x -> (x, i mod 2)) ids in
  let run delivery =
    Counted_consensus.sized := 0;
    let o =
      Ch.execute ~delivery ~seed:7L ~max_rounds:200 ~correct ~byzantine:[] ()
    in
    (Ch.Net.wire o.Ch.net, !Counted_consensus.sized)
  in
  let w_naive, sized_naive = run Delivery.Naive in
  let w_arena, sized_arena = run Delivery.Arena in
  check_true "wire identical across cores" (Wire.equal w_naive w_arena);
  check_int "same sizing calls on both cores" sized_naive sized_arena;
  check_true
    (Printf.sprintf "sized %d times for %d deliveries" sized_arena
       (Wire.messages w_arena))
    (sized_arena > 0 && 4 * sized_arena < Wire.messages w_arena)

let suite =
  ( "wire",
    [
      quick "of_json: duplicated row replaces"
        test_of_json_duplicate_row_replaces;
      quick "metrics: returning round opens an entry"
        test_metrics_returning_round_opens_entry;
      quick "repeated record allocates nothing"
        test_record_repeated_key_allocates_nothing;
      quick "encoded_bits once per accepted record" test_sized_once_per_record;
      quick "consensus: sized per record on both cores"
        test_consensus_sized_per_record;
    ]
    @ qcheck_cases
        [
          prop_wire_matches_reference;
          prop_of_json_duplicate_rows;
          prop_metrics_wire_matches_reference;
        ] )
