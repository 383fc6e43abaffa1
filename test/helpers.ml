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

(* Minor words allocated while running [f]. Compare against [words ignore]:
   the probe itself may allocate. *)
let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* 64-bit FNV-1a: the fingerprint behind every golden test, printed as 16
   hex digits so a mismatch shows both values. *)
let fnv1a (s : string) : int64 =
  let basis = 0xcbf29ce484222325L and prime = 0x100000001b3L in
  let h = ref basis in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  !h

let check_fp name expected actual =
  Alcotest.(check string) name (Printf.sprintf "%016Lx" expected)
    (Printf.sprintf "%016Lx" actual)

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
