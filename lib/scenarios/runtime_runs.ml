(* The networked runtime's protocol table: one entry per protocol that
   [ubpa run] and the bench's RT1-RT3 drive over real transports. Each
   entry owns its protocol's population, output relation and decision
   printing, runs it through [Runtime_exec.Make (P).run] (exact
   equivalence on an empty plan, graceful degradation otherwise) and
   returns a summary that does not depend on the protocol, so every
   caller has one report or row path.

   Populations: consensus inputs alternate [i mod 2] over the ids; in RB
   the first id sends "m" and every other node sends [present]. *)

open Ubpa_util
open Ubpa_sim
open Ubpa_harness

type summary = {
  transport : string;
  rounds : int;
  decided : int;  (** Nodes outside the crash ledger with an output. *)
  survivors : int;  (** Nodes outside the plan; every node on an empty plan. *)
  decisions : string list;  (** One line per node with an output. *)
  msgs : int;  (** Wire messages and bits. *)
  bits : int;
  frames : int;
  frame_bytes : int;
  late : int;
  injected : Ubpa_runtime.Transport_faulty.injected;
  dead : (Node_id.t * Node_id.t * int) list;  (** (observer, peer, round) *)
  crashed : (Node_id.t * int) list;
  events : Trace.event list;
  checks : Runtime_exec.check list;
  ok : bool;
  run_ms : float;  (** Wall time of the networked run alone. *)
}

type run =
  ?transport:[ `Domains | `Socket ] ->
  ?round_ms:float ->
  ?max_rounds:int ->
  ?faults:Ubpa_faults.plan ->
  ?fault_seed:int64 ->
  ?dead_after:int ->
  Node_id.t list ->
  (summary, string) result

module Entry
    (P : Protocol.S)
    (X : sig
      val population : Node_id.t list -> (Node_id.t * P.input) list
      val agree : P.output -> P.output -> bool
      val pp_output : P.output Fmt.t
    end) =
struct
  module E = Runtime_exec.Make (P)

  let summarize (v : E.verdict) =
    let r = v.E.v_run in
    let outputs =
      List.filter_map
        (fun (s : E.RT.node_summary) ->
          Option.map (fun o -> (s, o)) s.E.RT.ns_output)
        r.E.RT.r_nodes
    in
    {
      transport = r.E.RT.r_transport;
      rounds = r.E.RT.r_rounds;
      decided =
        List.length
          (List.filter
             (fun ((s : E.RT.node_summary), _) -> s.E.RT.ns_crashed_at = None)
             outputs);
      survivors = List.length v.E.v_survivors;
      decisions =
        List.map
          (fun ((s : E.RT.node_summary), o) ->
            Fmt.str "%a %a" Node_id.pp s.E.RT.ns_id X.pp_output o)
          outputs;
      msgs = Ubpa_obs.Wire.messages r.E.RT.r_wire;
      bits = Ubpa_obs.Wire.bits r.E.RT.r_wire;
      frames = r.E.RT.r_frames;
      frame_bytes = r.E.RT.r_frame_bytes;
      late = r.E.RT.r_late_frames;
      injected = r.E.RT.r_injected;
      dead = r.E.RT.r_dead;
      crashed = r.E.RT.r_crashed;
      events = r.E.RT.r_events;
      checks = v.E.v_checks;
      ok = v.E.v_ok;
      run_ms = v.E.v_run_ms;
    }

  let run : run =
   fun ?transport ?round_ms ?max_rounds ?faults ?fault_seed ?dead_after ids ->
    Result.map summarize
      (E.run ~agree:X.agree ?transport ?round_ms ?max_rounds ?faults
         ?fault_seed ?dead_after ~correct:(X.population ids) ())
end

(* RB outputs are cumulative accepted streams, not single decisions: two
   nodes agree when no sender is accepted with two different payloads
   across them. The relation is not transitive. *)
let rb_consistent (a : Scenarios.Rb.P.output) (b : Scenarios.Rb.P.output) =
  List.for_all
    (fun (x : Scenarios.Rb.P.accepted) ->
      List.for_all
        (fun (y : Scenarios.Rb.P.accepted) ->
          (not (Node_id.equal x.sender y.sender))
          || String.equal x.payload y.payload)
        b)
    a

module Rb_run =
  Entry
    (Scenarios.Rb.P)
    (struct
      let population =
        List.mapi (fun i id -> (id, if i = 0 then Some "m" else None))

      let agree = rb_consistent

      let pp_output ppf accepted =
        Fmt.pf ppf "accepted %d pair(s)" (List.length accepted)
    end)

module Consensus_run =
  Entry
    (Scenarios.Consensus_int.P)
    (struct
      let population = List.mapi (fun i id -> (id, i mod 2))
      let agree = Int.equal
      let pp_output ppf v = Fmt.pf ppf "-> %d" v
    end)

let runners : (string * run) list =
  [ ("rb", Rb_run.run); ("consensus", Consensus_run.run) ]

let protocols = List.map fst runners
