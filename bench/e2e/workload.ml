(* What a workload hands the closed loop, and the replays that attribute the
   delivery and frame layers after a traced instance. *)

open Ubpa_util
open Ubpa_sim

type outcome = {
  problems : string list;  (** Failed correctness checks; [] when correct. *)
  counts : (string * int) list;
      (** Deterministic per input: pinned in expected.json, and compared
          between every run of the same input. *)
  work : int;  (** Deliveries, or explored configurations for the checker. *)
}

type run = {
  finish : unit -> outcome;  (** Correctness checks, outside the timed span. *)
  layers : instance_ns:int -> Prof.snapshot -> (string * float) list;
      (** Traced runs only: replays and layer values for this instance. *)
}

type instance = { plain : unit -> run; traced : unit -> run }

type t = {
  name : string;
  available : (unit, string) result;
  make : seed:int -> smoke:bool -> instance array;
      (** Input generation: one instance per pool slot. The closed loop
          cycles the pool and runs every slot at least once. *)
}

let no_layers ~instance_ns:_ _ = []

let share ~instance_ns ns =
  if instance_ns <= 0 then 0.
  else 100. *. float_of_int ns /. float_of_int instance_ns

(* ---- delivery replay ---- *)

(* [sched.(i)]: the nodes present in round [i + 1] and the envelopes they
   sent, in the engine's delivery order. Round [i]'s envelopes are routed
   to round [i + 1]'s present set. *)
type 'm schedule = (Node_id.Set.t * 'm Envelope.t list) array

let envelopes ~src out =
  List.map (fun (dst, payload) -> { Envelope.src; dst; payload }) out

(* From the Timed recorder (newest first): correct nodes step in ascending
   id order, then Byzantine nodes act, which is also the engine's pending
   order. *)
let of_recorded sent : 'm schedule =
  let rounds = List.fold_left (fun acc (r, _, _) -> max acc r) 0 sent in
  let sched = Array.make rounds (Node_id.Set.empty, []) in
  List.iter
    (fun (r, src, out) ->
      let present, envs = sched.(r - 1) in
      sched.(r - 1) <- (Node_id.Set.add src present, envelopes ~src out @ envs))
    sent;
  sched

(* The delivery replay must reproduce the live count exactly, otherwise
   its attribution describes some other run: the traced run aborts.

   Every round is re-routed through the arena core the live run used,
   every present inbox is expanded lazily, then the map the fault path
   builds is materialised. With [wire], the round is routed once more with
   a wire-accounting hook recording into throwaway accumulators: the
   difference is the per-delivery fan-out and record cost the live run
   paid on top of sizing. *)
let delivery_layers ~equal ~wire ~live ~instance_ns (sched : 'm schedule) =
  let state = Delivery.arena_create () in
  let dedup_calls = ref 0 in
  let counted a b =
    incr dedup_calls;
    equal a b
  in
  let sink_wire = Ubpa_obs.Wire.create () in
  let sink_metrics = Metrics.create () in
  let hook ~recipient ~src _ =
    Ubpa_obs.Wire.record sink_wire ~round:1 ~sender:src ~recipient
      ~kind:"msg" ~bits:0;
    Metrics.record_wire sink_metrics ~round:1 ~bits:0
  in
  let deliveries = ref 0 and words = ref 0. in
  let route = ref 0 and expand = ref 0 and materialise = ref 0 in
  let hooked = ref 0 in
  Prof.span "replay.delivery" (fun () ->
      for i = 1 to Array.length sched - 1 do
        let present = fst sched.(i) and envelopes = snd sched.(i - 1) in
        let w0 = Gc.minor_words () in
        let t0 = Prof.now_ns () in
        let view =
          Delivery.route_arena ~state ~equal:counted ~present ~envelopes ()
        in
        let t1 = Prof.now_ns () in
        List.iter
          (fun id -> ignore (Delivery.view_inbox view id))
          (Delivery.view_present view);
        let t2 = Prof.now_ns () in
        words := !words +. (Gc.minor_words () -. w0);
        deliveries := !deliveries + Delivery.view_delivered view;
        ignore (Delivery.view_to_map view);
        let t3 = Prof.now_ns () in
        route := !route + (t1 - t0);
        expand := !expand + (t2 - t1);
        materialise := !materialise + (t3 - t2);
        if wire then begin
          ignore
            (Delivery.route_arena ~on_deliver:hook ~state ~equal ~present
               ~envelopes ());
          hooked := !hooked + (Prof.now_ns () - t3 - (t1 - t0))
        end
      done);
  if !deliveries <> live then
    failwith
      (Printf.sprintf "delivery replay routed %d deliveries, the live run %d"
         !deliveries live);
  let share = share ~instance_ns in
  [
    ("delivery.deliveries", float_of_int !deliveries);
    ("delivery.route_share", share !route);
    ("delivery.expand_share", share !expand);
    ("delivery.materialise_share", share !materialise);
    ("delivery.dedup_calls", float_of_int !dedup_calls);
    ( "delivery.minor_words_per_delivery",
      if !deliveries = 0 then 0. else !words /. float_of_int !deliveries );
    ("wire.record_share", share (max 0 !hooked));
  ]

(* ---- frame replay (runtime) ---- *)

module Frame = Ubpa_runtime.Frame

(* Every recorded send through the runtime's framing, as the live nodes
   did it: marshal once per send, encode once per destination (a
   broadcast goes to every node), then decode and unmarshal each frame.
   Returns the encode and decode nanoseconds. *)
let frames ~ids (rounds : (Node_id.t * (Envelope.dest * 'm) list) list list) =
  let encoded = ref [] and encode_ns = ref 0 in
  List.iteri
    (fun i senders ->
      List.iter
        (fun (src, out) ->
          List.iter
            (fun (dst, payload) ->
              let t0 = Prof.now_ns () in
              let body = Frame.marshal_message payload in
              let frame =
                { Frame.src; round = i + 1; kind = Frame.Data; body }
              in
              let dsts =
                match dst with
                | Envelope.To id -> [ id ]
                | Envelope.Broadcast -> ids
              in
              List.iter
                (fun _ -> encoded := Frame.encode frame :: !encoded)
                dsts;
              encode_ns := !encode_ns + (Prof.now_ns () - t0))
            out)
        senders)
    rounds;
  let t0 = Prof.now_ns () in
  List.iter
    (fun s ->
      match Frame.decode s with
      | Ok f -> ignore (Frame.unmarshal_message f.Frame.body : 'm)
      | Error e -> failwith e)
    !encoded;
  (!encode_ns, Prof.now_ns () - t0)
