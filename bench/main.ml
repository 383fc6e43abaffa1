(* Experiment harness.

   The paper is theory-only (no tables or figures), so EXPERIMENTS.md
   defines the evaluation suite: one table per claim of the paper plus the
   engine, checking and runtime experiments, each an [Exp.t] declared in
   its family module (Paper, Engine, Checks). This file parses the
   arguments and writes the artifacts. `--only E3,SCALE` selects
   experiments, `--fast` shrinks the sweeps, `--jobs N` runs sweep cells
   on N worker domains (tables stay byte-identical — see PERF2). *)

open Ubpa_util

let usage =
  "usage: main.exe [options]\n\
     \  --fast         shrink every sweep (CI smoke mode)\n\
     \  --only ID[,ID] run selected experiments (e.g. --only E3,SCALE)\n\
     \  --csv DIR      write one CSV per experiment into DIR\n\
     \  --json DIR     write one BENCH_<ID>.json artifact per experiment\n\
     \  --jobs N       run sweep cells on N worker domains (0 = all cores;\n\
     \                 default: UBPA_JOBS env var, then 1). Tables are\n\
     \                 byte-identical at any N; PERF2 machine-checks this.\n"

(* In run order. *)
let experiments =
  Paper.all
  @ Engine.[ perf2 ]
  @ Checks.[ r1 ]
  @ Engine.[ cx1 ]
  @ Checks.[ mc1; rt1; rt2; rt3 ]
  @ Engine.[ scale; cx2 ]

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  Printf.printf "wrote %s\n%!" path

let () =
  let fail msg =
    prerr_endline ("main.exe: " ^ msg);
    prerr_string usage;
    exit 2
  in
  let fast = ref false
  and only = ref None
  and csv_dir = ref None
  and json_dir = ref None
  and jobs = ref None in
  let rec parse = function
    | [] -> ()
    | "--fast" :: rest ->
        fast := true;
        parse rest
    | "--only" :: v :: rest ->
        only := Some (String.split_on_char ',' v);
        parse rest
    | "--csv" :: v :: rest ->
        csv_dir := Some v;
        parse rest
    | "--json" :: v :: rest ->
        json_dir := Some v;
        parse rest
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 0 ->
            jobs := Some j;
            parse rest
        | _ -> fail "--jobs expects a non-negative integer")
    | ("--help" | "-h") :: _ ->
        print_string usage;
        exit 0
    | [ (("--only" | "--csv" | "--json" | "--jobs") as flag) ] ->
        fail (flag ^ " expects a value")
    | arg :: _ -> fail ("unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let known id = List.exists (fun (e : Exp.t) -> e.id = id) experiments in
  let selected =
    match !only with
    | None -> experiments
    | Some ids -> (
        match List.filter (fun id -> not (known id)) ids with
        | [] -> List.filter (fun (e : Exp.t) -> List.mem e.id ids) experiments
        | unknown ->
            Printf.eprintf "main.exe: unknown experiment id %s; known ids:\n"
              (String.concat "," unknown);
            List.iter
              (fun (e : Exp.t) -> Printf.eprintf "  %-6s %s\n" e.id e.title)
              experiments;
            exit 2)
  in
  let ctx = { Exp.fast = !fast; jobs = !jobs } in
  let claim_failures = ref 0 in
  List.iter
    (fun (e : Exp.t) ->
      Printf.printf "\n[%s] running...\n%!" e.id;
      let t0 = Clock.now_ms () in
      let o = e.run ctx in
      let elapsed_ms = Clock.elapsed_ms ~since:t0 in
      Table.print o.table;
      Option.iter
        (fun dir ->
          Ubpa_report.Artifact.mkdir_p dir;
          write_file (Filename.concat dir (e.id ^ ".csv")) (Table.to_csv o.table))
        !csv_dir;
      Option.iter
        (fun dir ->
          let open Ubpa_report in
          let columns = Table.columns o.table and rows = Table.rows o.table in
          let path =
            Artifact.write ~dir
              {
                Artifact.experiment = e.id;
                title = Table.title o.table;
                fast = !fast;
                seeds = List.map Int64.to_int (Exp.seeds ctx);
                elapsed_ms;
                columns;
                rows;
                claims = o.claims;
                metrics = Artifact.derive_metrics ~columns ~rows;
                complexity = o.fits;
              }
          in
          List.iter
            (fun (name, contents) -> write_file (Filename.concat dir name) contents)
            o.files;
          let failed =
            List.filter_map
              (fun (c : Artifact.claim) ->
                if c.status = Artifact.Fail then Some c.cid else None)
              o.claims
          in
          claim_failures := !claim_failures + List.length failed;
          Printf.printf "wrote %s (%d claims%s)\n%!" path (List.length o.claims)
            (if failed = [] then "" else ", FAILED: " ^ String.concat ", " failed))
        !json_dir)
    selected;
  if !claim_failures > 0 then begin
    Printf.eprintf "%d claim(s) failed\n%!" !claim_failures;
    exit 1
  end
