open Ubpa_util
open Helpers

let test_threshold_exact () =
  (* count >= n/3 over the rationals, no flooring. *)
  check_true "3/9" (Threshold.ge_third ~count:3 ~of_:9);
  check_false "2/9" (Threshold.ge_third ~count:2 ~of_:9);
  check_true "4/10 (10/3 = 3.33)" (Threshold.ge_third ~count:4 ~of_:10);
  check_false "3/10" (Threshold.ge_third ~count:3 ~of_:10);
  check_true "7/10 (2*10/3 = 6.67)" (Threshold.ge_two_thirds ~count:7 ~of_:10);
  check_false "6/10" (Threshold.ge_two_thirds ~count:6 ~of_:10);
  check_true "6/9" (Threshold.ge_two_thirds ~count:6 ~of_:9);
  check_false "0/1 third" (Threshold.ge_third ~count:0 ~of_:1);
  check_true "1/1" (Threshold.ge_two_thirds ~count:1 ~of_:1)

let test_threshold_negation () =
  for n = 1 to 50 do
    for c = 0 to n do
      Alcotest.(check bool)
        (Printf.sprintf "lt_third %d/%d" c n)
        (not (Threshold.ge_third ~count:c ~of_:n))
        (Threshold.lt_third ~count:c ~of_:n)
    done
  done

let test_floor_third () =
  check_int "0" 0 (Threshold.floor_third 2);
  check_int "1" 1 (Threshold.floor_third 4);
  check_int "3" 3 (Threshold.floor_third 9);
  check_int "3 for 11" 3 (Threshold.floor_third 11)

let test_node_id_scatter () =
  let ids = Node_id.scatter ~seed:42L 100 in
  check_int "count" 100 (List.length ids);
  check_int "distinct" 100 (List.length (Node_id.sorted ids));
  (* non-consecutive: no two ids differ by exactly 1 *)
  let sorted = Node_id.sorted ids |> List.map Node_id.to_int in
  let rec adjacent = function
    | a :: (b :: _ as rest) -> b - a = 1 || adjacent rest
    | _ -> false
  in
  check_false "no adjacent identifiers" (adjacent sorted)

let test_node_id_scatter_deterministic () =
  let a = Node_id.scatter ~seed:7L 20 in
  let b = Node_id.scatter ~seed:7L 20 in
  check_true "same seed, same ids" (a = b);
  let c = Node_id.scatter ~seed:8L 20 in
  check_false "different seed, different ids" (a = c)

let test_rng_deterministic () =
  let a = Rng.create 1L and b = Rng.create 1L in
  let xs = List.init 10 (fun _ -> Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Rng.int b 1000) in
  check_true "streams equal" (xs = ys)

let test_rng_split_independent () =
  let root = Rng.create 1L in
  let child = Rng.split root in
  (* Drawing from the child must not change what the root produces next
     relative to a root that also split. *)
  let root' = Rng.create 1L in
  let _ = Rng.split root' in
  let _ = List.init 5 (fun _ -> Rng.int child 100) in
  check_int "root unaffected by child draws" (Rng.int root' 1000)
    (Rng.int root 1000)

let test_rng_bounds () =
  let rng = Rng.create 99L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    check_true "in bounds" (v >= 0 && v < 7)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 5L in
  let l = List.init 20 Fun.id in
  let s = Rng.shuffle rng l in
  check_true "permutation" (List.sort compare s = l)

module Str_tally = Tally.Make (String)

let tally_index = Interner.of_ids (List.init 6 Node_id.of_int)

let test_tally_dedup () =
  let t = Str_tally.create ~index:tally_index () in
  let a = Node_id.of_int 1 and b = Node_id.of_int 2 in
  Str_tally.add t ~sender:a "x";
  Str_tally.add t ~sender:a "x";
  Str_tally.add t ~sender:b "x";
  check_int "same sender counted once" 2 (Str_tally.count t "x");
  check_int "absent content" 0 (Str_tally.count t "y")

let test_tally_repeat_add_allocates_nothing () =
  let t = Str_tally.create ~index:tally_index () in
  let a = Node_id.of_int 1 and b = Node_id.of_int 2 in
  Str_tally.add t ~sender:a "x";
  Str_tally.add t ~sender:b "y";
  let idle = words ignore in
  let adds =
    words (fun () ->
        for _ = 1 to 1000 do
          Str_tally.add t ~sender:a "x";
          Str_tally.add t ~sender:b "x"
        done)
  in
  Alcotest.(check (float 0.)) "no minor words beyond the probe's own" idle adds;
  check_int "both senders counted" 2 (Str_tally.count t "x")

let test_tally_max_and_meeting () =
  let t = Str_tally.create ~index:tally_index () in
  List.iteri
    (fun i v -> Str_tally.add t ~sender:(Node_id.of_int i) v)
    [ "a"; "a"; "a"; "b"; "b"; "c" ];
  (match Str_tally.max_by_count t with
  | Some ("a", 3) -> ()
  | other ->
      Alcotest.failf "expected (a,3), got %s"
        (match other with
        | Some (k, c) -> Printf.sprintf "(%s,%d)" k c
        | None -> "none"));
  let meets = Str_tally.meeting t ~threshold:(fun c -> c >= 2) in
  check_true "a and b meet" (List.sort compare meets = [ "a"; "b" ])

let test_tally_tie_break () =
  let t = Str_tally.create ~index:tally_index () in
  Str_tally.add t ~sender:(Node_id.of_int 1) "z";
  Str_tally.add t ~sender:(Node_id.of_int 2) "a";
  match Str_tally.max_by_count t with
  | Some ("a", 1) -> ()
  | _ -> Alcotest.fail "tie must break toward the smaller content"

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Stats.median [ 1.; 2.; 3.; 4. ]);
  Alcotest.(check (float 1e-9)) "range" 2.0 (Stats.range [ 1.; 2.; 3. ]);
  let lo, hi = Stats.min_max [ 5.; -1.; 3. ] in
  Alcotest.(check (float 1e-9)) "min" (-1.) lo;
  Alcotest.(check (float 1e-9)) "max" 5. hi;
  Alcotest.(check (float 1e-9)) "p100" 9. (Stats.percentile 100. [ 1.; 9.; 3. ])

let test_histogram () =
  let h = Stats.histogram ~buckets:2 [ 0.; 1.; 2.; 3. ] in
  check_int "buckets" 2 (List.length h);
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  check_int "all counted" 4 total

let test_table () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_rowf t "%d|%s" 3 "four";
  let csv = Table.to_csv t in
  check_true "csv header" (String.length csv > 0);
  Alcotest.(check string) "csv" "a,b\n1,2\n3,four\n" csv;
  Alcotest.check_raises "arity enforced"
    (Invalid_argument "Table.add_row (t): expected 2 cells, got 1")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_csv_quoting () =
  let t = Table.create ~title:"q" ~columns:[ "x" ] in
  Table.add_row t [ "a,b" ];
  Alcotest.(check string) "quoted" "x\n\"a,b\"\n" (Table.to_csv t)


let test_value_modules () =
  let open Unknown_ba.Value in
  check_true "int order" (Int.compare 1 2 < 0);
  check_true "float order" (Float.compare 1.5 1.25 > 0);
  check_true "bool order" (Bool.compare false true < 0);
  check_true "string order" (String.compare "a" "b" < 0);
  let module O = Option (Int) in
  check_true "bottom sorts below values" (O.compare None (Some 0) < 0);
  check_int "equal options" 0 (O.compare (Some 3) (Some 3));
  Alcotest.(check string) "bottom renders" "⊥" (Fmt.to_to_string O.pp None)

(* No encoding in [encs] is a proper prefix of another, and distinct
   values never share one. *)
let check_prefix_free msg encs =
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i <> j then begin
            check_false (msg ^ ": distinct values, distinct keys")
              (String.equal a b);
            check_false
              (msg ^ ": no key is a prefix of another")
              (String.length a < String.length b
              && String.equal a (String.sub b 0 (String.length a)))
          end)
        encs)
    encs

let test_key_prefix_free () =
  let strings = Key.to_string (Key.list Key.string) in
  check_prefix_free "separator inside a string"
    [ strings [ "a;b" ]; strings [ "a"; "b" ]; strings [ "a"; ""; "b" ] ];
  let seq = Key.to_string (fun b l -> List.iter (Key.string b) l) in
  check_prefix_free "strings back to back"
    [ seq [ "ab" ]; seq [ "a"; "b" ]; seq [ "b"; "a" ] ];
  check_prefix_free "string lists"
    [ strings []; strings [ "" ]; strings [ ""; "" ]; strings [ "ab" ] ];
  let opt = Key.to_string (Key.option Key.string) in
  check_prefix_free "None vs Some \"\"" [ opt None; opt (Some ""); opt (Some "-") ];
  let width i = String.length (Key.to_string Key.int i) in
  List.iter
    (fun (i, bytes) ->
      check_int (Printf.sprintf "width of %d" i) bytes (width i))
    [
      (0, 1); (63, 1); (-64, 1); (64, 2); (-65, 2); (8191, 2); (-8192, 2);
      (8192, 3); ((1 lsl 30) - 1, 5); (max_int, 9); (min_int, 9);
    ];
  let ints =
    [
      0; 1; -1; 9; 10; 63; -64; 64; -65; 127; 128; 255; 256; 8191; -8192;
      8192; 1 lsl 30; 1 lsl 40; max_int; min_int;
    ]
  in
  let int_keys = List.map (Key.to_string Key.int) ints in
  check_prefix_free "ints of different magnitude" int_keys;
  check_prefix_free "int lists"
    (List.map (Key.to_string (Key.list Key.int)) [ []; [ 1 ]; [ 1; 2 ]; [ 12 ] ]);
  let open Unknown_ba.Value in
  check_prefix_free "floats by bits"
    (List.map (Key.to_string Float.key) [ 0.; -0.; 1.; 1. +. epsilon_float; nan ]);
  let module O = Option (String) in
  check_prefix_free "value options"
    (List.map (Key.to_string O.key) [ None; Some ""; Some "a"; Some "ab" ]);
  check_prefix_free "bools"
    (List.map (Key.to_string Bool.key) [ false; true ])

let test_max_f () =
  List.iter
    (fun (n, expected) ->
      check_int (Printf.sprintf "max_f %d" n) expected (Ubpa_scenarios.Scenarios.max_f n))
    [ (1, 0); (3, 0); (4, 1); (6, 1); (7, 2); (13, 4); (61, 20) ];
  (* n > 3f holds at max_f and fails just above. *)
  for n = 1 to 100 do
    let f = Ubpa_scenarios.Scenarios.max_f n in
    check_true "n > 3f" (n > 3 * f);
    check_false "maximal" (n > 3 * (f + 1))
  done

let suite =
  ( "util",
    [
      quick "threshold: exact rational comparisons" test_threshold_exact;
      quick "threshold: lt_third is the negation" test_threshold_negation;
      quick "threshold: floor_third" test_floor_third;
      quick "node_id: scatter is distinct and non-consecutive"
        test_node_id_scatter;
      quick "node_id: scatter is deterministic" test_node_id_scatter_deterministic;
      quick "rng: deterministic" test_rng_deterministic;
      quick "rng: split independence" test_rng_split_independent;
      quick "rng: int stays in bounds" test_rng_bounds;
      quick "rng: shuffle is a permutation" test_rng_shuffle_permutation;
      quick "tally: duplicate senders collapse" test_tally_dedup;
      quick "tally: max_by_count and meeting" test_tally_max_and_meeting;
      quick "tally: deterministic tie-break" test_tally_tie_break;
      quick "tally: a repeat add allocates nothing"
        test_tally_repeat_add_allocates_nothing;
      quick "stats: summaries" test_stats;
      quick "stats: histogram" test_histogram;
      quick "table: render and csv" test_table;
      quick "table: csv quoting" test_table_csv_quoting;
      quick "value modules order and print" test_value_modules;
      quick "max_f is the tight n>3f bound" test_max_f;
      quick "key: encodings are prefix-free" test_key_prefix_free;
    ] )
