(* What every experiment of the bench suite is: an id, a title, and a run
   that returns its table, claims, complexity fits and side files. Each
   experiment builds typed rows, renders them into its table, and
   evaluates its claims over the same typed rows — no claim reads a
   rendered cell back. *)

open Ubpa_util

type ctx = {
  fast : bool;  (** --fast: shrink the sweeps *)
  jobs : int option;  (** --jobs; None falls back to UBPA_JOBS, then 1 *)
}

type outcome = {
  table : Table.t;
  claims : Ubpa_report.Artifact.claim list;
  fits : Ubpa_obs.Complexity.fit list;
  files : (string * string) list;  (** (file name, contents) *)
}

type t = { id : string; title : string; run : ctx -> outcome }

let v id title run = { id; title; run }

(* [render] turns one typed row into its cells, in column order. *)
let outcome ?(fits = []) ?(files = []) ~title ~columns ~render ~claims rows =
  let table = Table.create ~title ~columns in
  List.iter (fun r -> Table.add_row table (render r)) rows;
  { table; claims; fits; files }

(* Bounds with a constant factor use the measured constants with
   headroom, so a claim fails loudly when a change loses the complexity
   class, not on run-to-run noise. *)
let claim cid description holds =
  let open Ubpa_report.Artifact in
  { cid; description; status = (if holds then Pass else Fail) }

(* [f] holds on every row, and there is at least one row: a claim over an
   empty sweep fails. *)
let all_yes f rows = rows <> [] && List.for_all f rows

(* Like [all_yes] where [f] is [None] on rows the claim does not cover:
   no covered row fails, and at least one is covered. *)
let all_yes_opt f rows =
  List.for_all (fun r -> f r <> Some false) rows
  && List.exists (fun r -> f r = Some true) rows

(* Every row [r] agrees with every row [r'] of the same [key] on
   [behaviour]: the transport-identity claims of RT1–RT3. *)
let pairwise_equal ~key ~behaviour rows =
  List.for_all
    (fun r ->
      List.for_all
        (fun r' -> key r <> key r' || behaviour r = behaviour r')
        rows)
    rows

let sizes ctx = if ctx.fast then [ 4; 7; 13 ] else [ 4; 7; 13; 25; 40; 61 ]
let f_sweep ctx = if ctx.fast then [ 1; 2; 3 ] else [ 1; 2; 3; 4; 5; 6 ]
let seeds ctx = if ctx.fast then [ 1L; 2L ] else [ 1L; 2L; 3L; 4L; 5L ]

(* Run one sweep cell per item on the pool and concatenate each cell's
   rows in submission order: the result is identical to a serial run at
   any --jobs (every cell owns its seeds; see Ubpa_harness.Pool). *)
let pool ctx items f =
  List.concat (Ubpa_harness.Pool.map ?jobs:ctx.jobs f items)

(* FNV-1a over a string, for the deterministic digests of PERF2 and SCALE
   (deliberately our own arithmetic — Hashtbl.hash may differ across
   compiler versions, this must not). *)
let fnv1a (s : string) : int64 =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let digest_cell h = Printf.sprintf "%016Lx" h
