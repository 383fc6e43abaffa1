(** Shared test plumbing. *)

open Ubpa_util

let node_id = Alcotest.testable Node_id.pp Node_id.equal

let check_true msg b = Alcotest.(check bool) msg true b
let check_false msg b = Alcotest.(check bool) msg false b
let check_int msg a b = Alcotest.(check int) msg a b

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

(* Deterministic inputs used all over the tests. *)
let binary_split i = i mod 2
let all_same _ = 7
let ramp i = float_of_int (10 * i)

let qcheck_cases props = List.map QCheck_alcotest.to_alcotest props

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1))
  in
  go 0

(* The arena core on a fresh state, materialised into the reference core's
   map-shaped result so differential tests can compare the two directly. *)
let arena_route ~on_deliver ~present ~envelopes =
  let open Ubpa_sim in
  let state = Delivery.arena_create () in
  let view =
    Delivery.route_arena ~on_deliver ~state ~equal:Int.equal ~present
      ~envelopes ()
  in
  (Delivery.view_to_map view, Delivery.view_delivered view)
