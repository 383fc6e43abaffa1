(** The regression gate: compare two benchmark artifact sets.

    Two checks feed CI:

    - {!check_claims} — every claim in every artifact must be [Pass];
      this is the self-checking part (the paper's bounds, re-evaluated on
      every run).
    - {!compare} — candidate artifacts against a baseline directory:
      fails on claim regressions (pass → fail), on complexity fits that
      vanished or stopped holding, on missing experiments, and on
      deterministic derived metrics (message counts, round counts, …)
      that grew beyond a relative threshold. Wall-clock time
      is only gated when an explicit [time_threshold] is supplied, since
      timing is noisy on shared CI runners. *)

type severity = Info | Failure

type issue = { experiment : string; severity : severity; message : string }

val failures : issue list -> issue list

val pp_issue : Format.formatter -> issue -> unit

val check_claims : Artifact.t list -> issue list
(** One [Failure] per failed claim and per violated complexity fit; one
    [Info] per artifact with an empty claims block (an experiment without
    machine-checked claims is suspicious but not fatal). *)

val exact_exempt_columns : string list
(** Table columns holding wall-clock / allocator measurements; their cells
    are masked by the [exact] refactor gate. *)

val compare :
  ?threshold:float ->
  ?time_threshold:float ->
  ?exact:bool ->
  baseline:Artifact.t list ->
  candidate:Artifact.t list ->
  unit ->
  issue list
(** [threshold] (percent, default [10.]) bounds the allowed relative
    growth of each shared derived metric. Metrics are only compared when
    the two artifacts ran the same sweep ([fast] flag and row count
    match); otherwise an [Info] issue notes the skip. [time_threshold]
    (percent) additionally gates [elapsed_ms]. [exact] (default [false])
    is the refactor gate: for every experiment present in both sets, the
    candidate's claims must equal the baseline's (ids, descriptions,
    statuses and order), and its columns and rows must be cell-for-cell
    identical — any drift is a [Failure]. Wall-clock [elapsed_ms]
    (metadata) and the measurement columns in {!exact_exempt_columns}
    (elapsed / throughput / minor-words / deadline cells, which vary by
    machine and compiler) stay exempt; behavioural statements about those
    cells are claim-gated instead. When the [fast] flags differ — a
    full-mode committed baseline against a [--fast] smoke run — the cell
    comparison is skipped with an [Info] note; the claims must still
    match. Claims of the candidate are checked unconditionally. *)
