type severity = Info | Failure

type issue = { experiment : string; severity : severity; message : string }

let failures issues = List.filter (fun i -> i.severity = Failure) issues

let pp_issue ppf i =
  Format.fprintf ppf "[%s] %s: %s"
    (match i.severity with Info -> "info" | Failure -> "FAIL")
    i.experiment i.message

let check_claims (artifacts : Artifact.t list) =
  List.concat_map
    (fun (a : Artifact.t) ->
      if a.claims = [] then
        [
          {
            experiment = a.experiment;
            severity = Info;
            message = "no machine-checked claims";
          };
        ]
      else
        List.filter_map
          (fun (c : Artifact.claim) ->
            match c.status with
            | Artifact.Pass -> None
            | Artifact.Fail ->
                Some
                  {
                    experiment = a.experiment;
                    severity = Failure;
                    message =
                      Printf.sprintf "claim %s failed: %s" c.cid c.description;
                  })
          a.claims
        @ List.filter_map
            (fun (f : Ubpa_obs.Complexity.fit) ->
              if f.holds then None
              else
                Some
                  {
                    experiment = a.experiment;
                    severity = Failure;
                    message =
                      Printf.sprintf
                        "complexity fit %s violated: measured slope %.2f \
                         against %s"
                        f.name f.slope
                        (Ubpa_obs.Complexity.shape_label f.shape);
                  })
            a.complexity)
    artifacts

let pct_growth ~baseline ~candidate =
  if baseline = 0. then if candidate = 0. then 0. else infinity
  else (candidate -. baseline) /. Float.abs baseline *. 100.

let compare_metric ~experiment ~threshold name ~baseline ~candidate =
  let growth = pct_growth ~baseline ~candidate in
  if growth > threshold then
    Some
      {
        experiment;
        severity = Failure;
        message =
          Printf.sprintf "%s regressed %.1f%% (%g -> %g, budget %.1f%%)" name
            growth baseline candidate threshold;
      }
  else None

(* Columns whose cells are wall-clock or allocator measurements: their
   values vary run to run, machine to machine and compiler to compiler, so
   the refactor gate masks them. Behavioural statements about these cells
   are claim-gated instead (SCALE.alloc-flat, CX1.wire-alloc,
   RT3.under-deadline), and claim regressions are always Failures. *)
let exact_exempt_columns =
  [
    "elapsed";
    "rounds/s";
    "msgs/s";
    "speedup";
    "minor-w/msg";
    "wire-w/msg";
    "frames/s";
    "avg-round-ms";
    "under-deadline";
  ]

(* Exact mode: the refactor gate. The candidate table must be cell-for-cell
   identical to the baseline — any drift in columns, row count, or any
   non-exempt cell is a Failure, regardless of thresholds. *)
let exact_issues ~experiment (base : Artifact.t) (cand : Artifact.t) =
  if base.columns <> cand.columns then
    [
      {
        experiment;
        severity = Failure;
        message =
          Printf.sprintf "columns differ: [%s] -> [%s]"
            (String.concat "; " base.columns)
            (String.concat "; " cand.columns);
      };
    ]
  else if List.length base.rows <> List.length cand.rows then
    [
      {
        experiment;
        severity = Failure;
        message =
          Printf.sprintf "row count differs: %d -> %d"
            (List.length base.rows) (List.length cand.rows);
      };
    ]
  else
    let exempt =
      List.map (fun c -> List.mem c exact_exempt_columns) base.columns
    in
    let mask row =
      if List.length row <> List.length exempt then row
      else List.map2 (fun ex cell -> if ex then "-" else cell) exempt row
    in
    List.concat
      (List.mapi
         (fun i (b_row, c_row) ->
           if mask b_row = mask c_row then []
           else
             [
               {
                 experiment;
                 severity = Failure;
                 message =
                   Printf.sprintf "row %d differs: [%s] -> [%s]" i
                     (String.concat "; " b_row)
                     (String.concat "; " c_row);
               };
             ])
         (List.combine base.rows cand.rows))

let compare_pair ~threshold ~time_threshold ~exact (base : Artifact.t)
    (cand : Artifact.t) =
  let experiment = cand.experiment in
  let claim_regressions =
    List.filter_map
      (fun (bc : Artifact.claim) ->
        match
          List.find_opt
            (fun (cc : Artifact.claim) -> cc.cid = bc.cid)
            cand.claims
        with
        | None ->
            Some
              {
                experiment;
                severity = Failure;
                message = Printf.sprintf "claim %s disappeared" bc.cid;
              }
        | Some cc
          when bc.status = Artifact.Pass && cc.status = Artifact.Fail ->
            Some
              {
                experiment;
                severity = Failure;
                message =
                  Printf.sprintf "claim %s regressed pass -> fail: %s" bc.cid
                    cc.description;
              }
        | Some _ -> None)
      base.claims
  in
  (* Complexity fits (schema v2) gate like claims: a fit that vanished or
     whose envelope no longer holds is a regression. A v1 baseline has no
     fits, so candidates may add them freely. *)
  let complexity_regressions =
    List.filter_map
      (fun (bf : Ubpa_obs.Complexity.fit) ->
        match
          List.find_opt
            (fun (cf : Ubpa_obs.Complexity.fit) -> cf.name = bf.name)
            cand.complexity
        with
        | None ->
            Some
              {
                experiment;
                severity = Failure;
                message =
                  Printf.sprintf "complexity fit %s disappeared" bf.name;
              }
        | Some cf when bf.holds && not cf.holds ->
            Some
              {
                experiment;
                severity = Failure;
                message =
                  Printf.sprintf
                    "complexity fit %s regressed: %s envelope no longer \
                     holds (slope %.2f)"
                    cf.name
                    (Ubpa_obs.Complexity.shape_label cf.shape)
                    cf.slope;
              }
        | Some _ -> None)
      base.complexity
  in
  let comparable =
    base.fast = cand.fast && List.length base.rows = List.length cand.rows
  in
  let metric_issues =
    if not comparable then
      [
        {
          experiment;
          severity = Info;
          message =
            "sweeps differ (fast flag or row count); metric comparison skipped";
        };
      ]
    else
      List.filter_map
        (fun (name, candidate) ->
          match List.assoc_opt name base.metrics with
          | None -> None
          | Some baseline ->
              compare_metric ~experiment ~threshold name ~baseline ~candidate)
        cand.metrics
  in
  let time_issues =
    match time_threshold with
    | None -> []
    | Some t when comparable ->
        Option.to_list
          (compare_metric ~experiment ~threshold:t "elapsed_ms"
             ~baseline:base.elapsed_ms ~candidate:cand.elapsed_ms)
    | Some _ -> []
  in
  let exactness =
    if not exact then []
    else if base.fast <> cand.fast then
      (* A full-mode committed baseline (e.g. BENCH_SCALE.json with its
         n=10,000 rows) cannot be cell-compared against a --fast smoke
         run; the candidate's own claims still gate it. *)
      [
        {
          experiment;
          severity = Info;
          message = "fast flags differ; exact cell comparison skipped";
        };
      ]
    else exact_issues ~experiment base cand
  in
  claim_regressions @ complexity_regressions @ metric_issues @ time_issues
  @ exactness

let compare ?(threshold = 10.) ?time_threshold ?(exact = false)
    ~(baseline : Artifact.t list) ~(candidate : Artifact.t list) () =
  let missing =
    List.filter_map
      (fun (b : Artifact.t) ->
        if
          List.exists
            (fun (c : Artifact.t) -> c.experiment = b.experiment)
            candidate
        then None
        else
          Some
            {
              experiment = b.experiment;
              severity = Failure;
              message = "experiment missing from candidate artifacts";
            })
      baseline
  in
  let new_ones =
    List.filter_map
      (fun (c : Artifact.t) ->
        if
          List.exists
            (fun (b : Artifact.t) -> b.experiment = c.experiment)
            baseline
        then None
        else
          Some
            {
              experiment = c.experiment;
              severity = Info;
              message = "new experiment (no baseline)";
            })
      candidate
  in
  let pairwise =
    List.concat_map
      (fun (c : Artifact.t) ->
        match
          List.find_opt
            (fun (b : Artifact.t) -> b.experiment = c.experiment)
            baseline
        with
        | None -> []
        | Some b -> compare_pair ~threshold ~time_threshold ~exact b c)
      candidate
  in
  missing @ new_ones @ pairwise @ check_claims candidate
