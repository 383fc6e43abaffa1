(* Timing wrappers over the layers' public interfaces. A traced workload
   instantiates the same engine functors with these in place of the plain
   modules, so the untraced run executes exactly the library code. *)

open Ubpa_util
open Ubpa_sim

let timed c f =
  let t0 = Prof.now_ns () in
  let r = f () in
  Prof.add c ~since:t0;
  r

type 'm sends = (Envelope.dest * 'm) list

(** A protocol a workload can run plain or traced. *)
module type S = sig
  include Protocol.S

  val sent : (int * Node_id.t * message sends) list ref
  (** [(round, sender, sends)], newest first: correct steps and Byzantine
      acts in execution order, recorded while {!Prof.recording} is set. *)

  val record : round:int -> self:Node_id.t -> message sends -> unit
end

module type WRAP = functor (P : Protocol.S) ->
  S
    with type input = P.input
     and type stimulus = P.stimulus
     and type output = P.output
     and type message = P.message
     and type state = P.state

(** [P] itself, with a recorder that is never written. *)
module Plain : WRAP =
functor
  (P : Protocol.S)
  ->
  struct
    include P

    let sent = ref []
    let record ~round:_ ~self:_ _ = ()
  end

(** [Make (P)] times and counts [step], [equal_message] and
    [encoded_bits], and records every send while {!Prof.recording} is set
    (the delivery replay's input). *)
module Make : WRAP =
functor
  (P : Protocol.S)
  ->
  struct
    include P

    let sent = ref []
    let record ~round ~self out = sent := (round, self, out) :: !sent

    let step ~self ~round ~stim st ~inbox =
      let t0 = Prof.now_ns () in
      let ((_, out, _) as r) = P.step ~self ~round ~stim st ~inbox in
      Prof.add Prof.step ~since:t0;
      Prof.tally Prof.inbox_msgs (List.length inbox);
      Prof.tally Prof.sends (List.length out);
      if !Prof.recording then record ~round ~self out;
      r

    let equal_message a b =
      if !Prof.in_act then begin
        Prof.tally Prof.equal 1;
        P.equal_message a b
      end
      else timed Prof.equal (fun () -> P.equal_message a b)

    let encoded_bits m = timed Prof.sizing (fun () -> P.encoded_bits m)
  end

(** A Byzantine strategy whose [act] is timed and counted, and whose sends
    are handed to [record] while {!Prof.recording} is set. *)
let strategy ~record (s : 'm Strategy.t) : 'm Strategy.t =
  {
    s with
    make =
      (fun rng self ->
        let act = s.make rng self in
        fun (view : 'm Strategy.view) ->
          Prof.in_act := true;
          let t0 = Prof.now_ns () in
          let out =
            Fun.protect
              ~finally:(fun () -> Prof.in_act := false)
              (fun () -> act view)
          in
          Prof.add Prof.act ~since:t0;
          Prof.tally Prof.byz_sends (List.length out);
          if !Prof.recording then record ~round:view.Strategy.round ~self out;
          out);
  }

(** [Model (M)] is [M] over [Make (M.P)], with [copy_state], [state_key]
    and every property timed as well. *)
module Model (M : Ubpa_check.Model.S) : Ubpa_check.Model.S = struct
  module P = Make (M.P)

  let name = M.name
  let roots = M.roots
  let palette = M.palette
  let copy_state s = timed Prof.copy_state (fun () -> M.copy_state s)
  let state_key s = timed Prof.state_key (fun () -> M.state_key s)
  let input_key = M.input_key
  let output_key = M.output_key
  let recipient_symmetric = M.recipient_symmetric
  let pinned = M.pinned

  let properties ~correct ~byzantine =
    List.map
      (fun (name, f) ->
        ( name,
          fun ~round obs -> timed Prof.properties (fun () -> f ~round obs) ))
      (M.properties ~correct ~byzantine)
end
