(* Regression gate over benchmark artifact directories.

   One directory: verify every claim in every BENCH_*.json is "pass".
   Two directories: additionally diff candidate against baseline —
   pass->fail claim flips, missing experiments, and derived metrics
   (message counts, round counts, ...) that grew beyond the threshold
   all make the exit status non-zero, which is what CI keys off. With
   --exact, any change to a claims list or a non-exempt table cell
   does too. *)

open Ubpa_report

let usage =
  "bench_diff [options] DIR            check claims in one artifact dir\n\
   bench_diff [options] BASELINE CAND  diff two artifact dirs\n\n\
   exit status: 0 ok, 1 claim failure or regression, 2 usage/IO error\n"

let () =
  let check_claims_only = ref false in
  let threshold = ref 10. in
  let time_threshold = ref None in
  let exact = ref false in
  let dirs = ref [] in
  let spec =
    [
      ( "--check-claims",
        Arg.Set check_claims_only,
        " only verify claim statuses (default for a single directory)" );
      ( "--threshold",
        Arg.Set_float threshold,
        "PCT allowed relative growth per derived metric (default 10)" );
      ( "--time-threshold",
        Arg.Float (fun f -> time_threshold := Some f),
        "PCT also gate wall-clock elapsed_ms (off by default: CI timing is \
         noisy)" );
      ( "--exact",
        Arg.Set exact,
        " require candidate claims and tables to be identical to the \
         baseline, cell for cell (refactor gate; wall-clock metadata stays \
         exempt)" );
    ]
  in
  Arg.parse spec (fun d -> dirs := d :: !dirs) usage;
  let load dir =
    match Artifact.load_dir dir with
    | Ok [] ->
        Printf.eprintf "%s: no BENCH_*.json artifacts found\n" dir;
        exit 2
    | Ok artifacts -> artifacts
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
  in
  let issues =
    match List.rev !dirs with
    | [ dir ] -> Diff.check_claims (load dir)
    | [ baseline; candidate ] ->
        let baseline = load baseline and candidate = load candidate in
        if !check_claims_only then Diff.check_claims candidate
        else
          Diff.compare ~threshold:!threshold ?time_threshold:!time_threshold
            ~exact:!exact ~baseline ~candidate ()
    | _ ->
        prerr_string usage;
        exit 2
  in
  List.iter (fun i -> Format.printf "%a@." Diff.pp_issue i) issues;
  match Diff.failures issues with
  | [] ->
      print_endline "bench_diff: ok";
      exit 0
  | fs ->
      Printf.printf "bench_diff: %d failure(s)\n" (List.length fs);
      exit 1
