(** Structured execution traces.

    A trace records engine events (joins, sends, deliveries, decisions) so
    tests, the CLI, and the bench pipeline can inspect, pretty-print, or
    serialize what happened. Every event carries a typed {!kind} in
    addition to its human-readable description, so consumers no longer
    have to parse the description strings. Disabled traces are free. *)

open Ubpa_util

type kind =
  | Join  (** A node joined (correct or Byzantine). *)
  | Leave  (** The adversary withdrew a Byzantine node. *)
  | Send  (** A correct node emitted an envelope. *)
  | Byz_send  (** A Byzantine node emitted an envelope. *)
  | Output  (** A correct node produced (non-final) output. *)
  | Halt  (** A correct node halted with final output. *)
  | Fault  (** An injected benign fault took effect ({!Ubpa_faults}). *)
  | Engine  (** Engine-level bookkeeping; also the default. *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

type event = {
  round : int;
  node : Node_id.t option;  (** [None] for engine-level events. *)
  kind : kind;
  what : string;
}

type t
(** An enabled trace has one writer at a time: its event list and its
    {!recordf} formatter are plain mutable state. A runtime node thread
    owns its own trace until the join. *)

val create : ?live:bool -> unit -> t
(** [live] additionally prints each event as it is recorded. *)

val disabled : t
(** A shared sink that records nothing. *)

val subscribe : t -> (event -> unit) -> unit
(** [subscribe t f] calls [f] on every event the moment it is recorded —
    the hook online monitors ({!Ubpa_monitor}) attach to. Subscribers run
    in subscription order, after the event is stored. Raises
    [Invalid_argument] on {!disabled}, which never records anything. *)

val record : t -> round:int -> ?node:Node_id.t -> ?kind:kind -> string -> unit
(** [kind] defaults to [Engine]. *)

val recordf :
  t ->
  round:int ->
  ?node:Node_id.t ->
  ?kind:kind ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** As {!record}, with the message formatted. An enabled trace formats
    every event into one buffer and formatter, made on first use and
    flushed and cleared after each event, so an event costs no fresh
    printer. On {!disabled} nothing is formatted: the arguments are
    consumed, no printer is called and no formatter is made. *)

val enabled : t -> bool
(** False only for {!disabled}. {!recordf} already skips formatting on a
    disabled trace, but the call still consumes its arguments through a
    chain of closures: test this to skip work outside the format, or the
    call itself on a per-message path. *)

val events : t -> event list
(** In order of recording. *)

val find : t -> f:(event -> bool) -> event option
val pp : Format.formatter -> t -> unit

val of_events : event list -> t
(** A fresh enabled trace holding exactly [events], in order — how offline
    tooling (the networked runtime, [ubpa trace --diff]) materializes a
    trace it assembled event by event. *)

(** {2 Comparison}

    The networked runtime claims {e trace equivalence} with the lockstep
    simulator; these helpers are the comparison primitive behind that
    claim and behind [ubpa trace --diff]. *)

val equal_event : event -> event -> bool
(** All four fields equal. *)

val equal_events : event list -> event list -> bool

type diff = {
  first_divergence : (int * event option * event option) option;
      (** [(index, a, b)] of the first position where the streams differ;
          [None] on one side means that stream ended first. [None] overall
          means the streams are identical. *)
  kind_counts : (string * int * int) list;
      (** Per-kind event counts [(kind, count_a, count_b)] for every kind
          present in either stream, in declaration order. *)
  length_a : int;
  length_b : int;
}

val diff_events : event list -> event list -> diff

(** {2 Serialization} *)

val event_to_json : event -> Json.t
(** [{"round", "node" (or null), "kind", "what"}]. *)

val event_of_json : Json.t -> (event, string) result
val to_json : t -> Json.t

val to_jsonl : t -> string
(** One compact JSON object per line, in order of recording — the trace
    interchange format written by [--trace-jsonl] style tooling. *)

val of_jsonl : string -> (event list, string) result
(** Parse a JSONL trace back into events ([ubpa trace --file] reads
    these). Blank lines are skipped; the first malformed line fails the
    whole parse with its line number. Inverse of {!to_jsonl}. *)
