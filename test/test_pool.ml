(* The multicore sweep executor and the dense-index primitives it feeds:
   Pool.map must be List.map with workers (same results, same order, same
   exception), and Interner/Bitset/dense Tally must be observably identical
   to the sparse structures they replace. *)

open Ubpa_util
open Ubpa_harness
open Helpers

(* ----- Pool.map ----- *)

let jobs_levels = [ 1; 2; 8 ]

let test_pool_map_ordered () =
  let items = List.init 200 (fun i -> i - 50) in
  let f n = (n * n) - (3 * n) in
  let expected = List.map f items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Pool.map ~jobs f items))
    jobs_levels

let test_pool_map_uneven_work () =
  (* Cells with wildly different costs still merge in submission order. *)
  let items = List.init 40 (fun i -> i) in
  let f n =
    let spin = if n mod 7 = 0 then 40_000 else 10 in
    let acc = ref n in
    for _ = 1 to spin do
      acc := ((!acc * 31) + 1) land 0xffffff
    done;
    !acc
  in
  let expected = List.map f items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Pool.map ~jobs f items))
    jobs_levels

let test_pool_map_empty_and_small () =
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "empty jobs=%d" jobs)
        [] (Pool.map ~jobs (fun x -> x) []);
      Alcotest.(check (list int))
        (Printf.sprintf "singleton jobs=%d" jobs)
        [ 42 ]
        (Pool.map ~jobs (fun x -> x + 41) [ 1 ]))
    jobs_levels

let test_pool_map_jobs_zero () =
  (* ~jobs:0 means "all cores"; semantics must not change. *)
  let items = List.init 50 (fun i -> i) in
  Alcotest.(check (list int))
    "jobs=0" (List.map succ items)
    (Pool.map ~jobs:0 succ items)

let test_pool_map_exception () =
  (* The exception of the lowest-indexed failing item propagates, and the
     pool is not leaked: the next map on the same backend still works. *)
  let f n = if n = 5 || n = 17 then failwith (Printf.sprintf "boom-%d" n) else n in
  List.iter
    (fun jobs ->
      (match Pool.map ~jobs f (List.init 30 (fun i -> i)) with
      | _ -> Alcotest.failf "jobs=%d: expected an exception" jobs
      | exception Failure msg ->
          Alcotest.(check string)
            (Printf.sprintf "lowest-index failure at jobs=%d" jobs)
            "boom-5" msg);
      Alcotest.(check (list int))
        (Printf.sprintf "pool usable after failure at jobs=%d" jobs)
        [ 2; 3; 4 ]
        (Pool.map ~jobs succ [ 1; 2; 3 ]))
    jobs_levels

let prop_pool_matches_list_map =
  QCheck2.Test.make ~count:100
    ~name:"Pool.map ~jobs:k equals List.map for k in 1..8"
    QCheck2.Gen.(
      pair (int_range 1 8) (list_size (int_range 0 60) (int_range (-1000) 1000)))
    (fun (jobs, items) ->
      Pool.map ~jobs (fun n -> (n * 7) - 1) items
      = List.map (fun n -> (n * 7) - 1) items)

(* ----- Interner ----- *)

let test_interner_roundtrip () =
  let ids = Node_id.scatter ~seed:2026L 64 in
  let intr = Interner.create ~hint:8 () in
  List.iteri
    (fun i id ->
      check_int (Printf.sprintf "first-seen index %d" i) i (Interner.intern intr id))
    ids;
  check_int "size" 64 (Interner.size intr);
  List.iteri
    (fun i id ->
      check_int (Printf.sprintf "re-intern %d idempotent" i) i
        (Interner.intern intr id);
      check_true (Printf.sprintf "mem %d" i) (Interner.mem intr id);
      Alcotest.(check (option int))
        (Printf.sprintf "find_opt %d" i)
        (Some i) (Interner.find_opt intr id);
      check_true
        (Printf.sprintf "extern inverse %d" i)
        (Node_id.equal id (Interner.extern intr i)))
    ids;
  check_int "size unchanged by lookups" 64 (Interner.size intr);
  let stranger = Node_id.of_int 123_456_789 in
  check_false "unknown id" (Interner.mem intr stranger);
  Alcotest.(check (option int)) "unknown find_opt" None
    (Interner.find_opt intr stranger);
  Alcotest.check_raises "extern out of range"
    (Invalid_argument "Interner.extern: index 64 out of 0..63") (fun () ->
      ignore (Interner.extern intr 64))

let test_interner_iter_order () =
  let ids = Node_id.scatter ~seed:7L 20 in
  let intr = Interner.create () in
  List.iter (fun id -> ignore (Interner.intern intr id)) ids;
  let seen = ref [] in
  Interner.iter intr (fun ix id -> seen := (ix, id) :: !seen);
  let seen = List.rev !seen in
  check_int "iter covers all" 20 (List.length seen);
  List.iteri
    (fun i (ix, id) ->
      check_int (Printf.sprintf "iter index %d" i) i ix;
      check_true
        (Printf.sprintf "iter id %d" i)
        (Node_id.equal id (List.nth ids i)))
    seen

(* ----- Bitset ----- *)

let test_bitset_basics () =
  let b = Bitset.create ~hint:4 () in
  check_int "empty count" 0 (Bitset.count b);
  check_false "empty mem" (Bitset.mem b 0);
  check_false "mem far beyond capacity" (Bitset.mem b 100_000);
  Bitset.add b 3;
  Bitset.add b 0;
  Bitset.add b 3;
  check_int "idempotent add" 2 (Bitset.count b);
  check_true "mem 0" (Bitset.mem b 0);
  check_true "mem 3" (Bitset.mem b 3);
  check_false "mem 1" (Bitset.mem b 1);
  (* growth well past the hint *)
  Bitset.add b 977;
  check_true "grown mem" (Bitset.mem b 977);
  check_false "grown non-member" (Bitset.mem b 976);
  check_int "count after growth" 3 (Bitset.count b);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Bitset.add: negative index") (fun () -> Bitset.add b (-1))

let test_bitset_clear () =
  let b = Bitset.create ~hint:4 () in
  Bitset.clear b;
  check_int "clear on empty" 0 (Bitset.count b);
  List.iter (Bitset.add b) [ 0; 7; 512 ];
  Bitset.clear b;
  check_int "count after clear" 0 (Bitset.count b);
  check_false "mem 0 after clear" (Bitset.mem b 0);
  check_false "mem 512 after clear" (Bitset.mem b 512);
  (* The grown capacity survives the clear and stays usable. *)
  Bitset.add b 512;
  check_true "re-add after clear" (Bitset.mem b 512);
  check_int "count after re-add" 1 (Bitset.count b)

(* ----- Arena ----- *)

let test_arena_basics () =
  let a = Arena.create ~hint:2 ~dummy:(-1) () in
  check_int "empty length" 0 (Arena.length a);
  for i = 0 to 99 do
    Arena.push a (i * i)
  done;
  check_int "length after pushes" 100 (Arena.length a);
  check_true "capacity grew" (Arena.capacity a >= 100);
  check_int "get 0" 0 (Arena.get a 0);
  check_int "get 99" (99 * 99) (Arena.get a 99);
  check_int "unsafe_get" (7 * 7) (Arena.unsafe_get a 7);
  Arena.set a 7 42;
  check_int "set/get" 42 (Arena.get a 7);
  check_int "fold sums"
    (List.fold_left ( + ) 0
       (List.init 100 (fun i -> if i = 7 then 42 else i * i)))
    (Arena.fold a ~init:0 ~f:( + ));
  let seen = ref 0 in
  Arena.iteri a (fun i v -> if i = 9 then seen := v);
  check_int "iteri passes indices" 81 !seen;
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Arena.get: index 100 out of 0..99") (fun () ->
      ignore (Arena.get a 100));
  let cap = Arena.capacity a in
  Arena.clear a;
  check_int "clear drops length" 0 (Arena.length a);
  check_int "clear keeps capacity" cap (Arena.capacity a);
  Arena.push a 5;
  check_int "reusable after clear" 5 (Arena.get a 0);
  Arena.reset a;
  check_int "reset drops length" 0 (Arena.length a);
  Alcotest.check_raises "read after reset"
    (Invalid_argument "Arena.get: index 0 out of 0..-1") (fun () ->
      ignore (Arena.get a 0))

(* ----- keyed Tally vs the list-scan reference ----- *)

module Int_tally = Tally.Make (Int)

(* Random (sender, content) streams with repeats, over a sender pool whose
   ids are scattered and registered in a shuffled order, so slot order,
   id order and arrival order all differ. Every observation is compared
   in order, not sorted. *)
let prop_tally_matches_reference =
  QCheck2.Test.make ~count:200
    ~name:"keyed tally matches the list-scan reference, order included"
    QCheck2.Gen.(
      pair int64
        (list_size (int_range 0 80) (pair (int_bound 15) (int_bound 7))))
    (fun (seed, events) ->
      let ids = Node_id.scatter ~seed 16 in
      let index = Interner.of_ids (Rng.shuffle (Rng.create seed) ids) in
      let id_of i = List.nth ids i in
      let keyed = Int_tally.create ~index () in
      let spec = Tally_reference.create ~compare:Int.compare in
      List.iter
        (fun (sender_ix, content) ->
          Int_tally.add keyed ~sender:(id_of sender_ix) content;
          Tally_reference.add spec ~sender:(id_of sender_ix) content)
        events;
      let contents = Tally_reference.contents spec in
      Int_tally.contents keyed = contents
      && List.for_all
           (fun k ->
             Int_tally.count keyed k = Tally_reference.count spec k
             && Int_tally.senders keyed k = Tally_reference.senders spec k)
           (-1 :: contents)
      && Int_tally.max_by_count keyed = Tally_reference.max_by_count spec
      && List.for_all
           (fun thr ->
             let threshold c = c >= thr in
             Int_tally.meeting keyed ~threshold
             = Tally_reference.meeting spec ~threshold)
           [ 1; 2; 3; 5 ])

let suite =
  ( "pool+dense-index",
    [
      quick "Pool.map preserves order at jobs=1/2/8" test_pool_map_ordered;
      quick "Pool.map with uneven per-cell work" test_pool_map_uneven_work;
      quick "Pool.map on empty and singleton lists" test_pool_map_empty_and_small;
      quick "Pool.map ~jobs:0 uses all cores" test_pool_map_jobs_zero;
      quick "Pool.map re-raises the lowest-indexed exception"
        test_pool_map_exception;
      quick "Interner intern/extern round-trip" test_interner_roundtrip;
      quick "Interner.iter ascending first-seen order" test_interner_iter_order;
      quick "Bitset membership, growth, idempotence" test_bitset_basics;
      quick "Bitset.clear keeps capacity" test_bitset_clear;
      quick "Arena push/get/clear/reset" test_arena_basics;
    ]
    @ qcheck_cases [ prop_pool_matches_list_map; prop_tally_matches_reference ]
  )
