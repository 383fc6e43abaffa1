open Ubpa_util

type injected = {
  mutable inj_lost : int;
  mutable inj_dup : int;
  mutable inj_delayed : int;
}

type fault_event = { fe_round : int; fe_what : string }

module type CONFIG = sig
  val plan : Ubpa_faults.plan
  val seed : int64
end

module type S = sig
  include Transport.S

  val note_round : endpoint -> int -> Frame.t list
  val injected : endpoint -> injected
  val fault_events : endpoint -> fault_event list
end

module Make (B : Transport.S) (C : CONFIG) = struct
  let name = B.name
  let active = not (Ubpa_faults.is_empty C.plan)

  type held_in = { hi_release : int; hi_frame : Frame.t }

  type endpoint = {
    e_base : B.endpoint;
    e_self : Node_id.t;
    e_send_rng : (Node_id.t * Rng.t) list;  (* per outgoing edge *)
    e_recv_rng : (Node_id.t * Rng.t) list;  (* per incoming edge *)
    mutable e_round : int;
    mutable e_in_held : held_in list;  (* delayed/duplicated arrivals, newest first *)
    e_inj : injected;
    mutable e_events : fault_event list;  (* newest first *)
  }

  type hub = { b_hub : B.hub; b_ids : Node_id.t list }

  let create ~ids = { b_hub = B.create ~ids; b_ids = Node_id.sorted ids }

  (* One splitmix64 stream per directed edge, keyed only by (seed, src,
     dst, direction): every edge's decisions are a pure function of its
     own frame sequence, so they are identical across transports and
     immune to scheduler interleaving — the per-edge FIFO fixes the
     order draws happen in. *)
  let edge_stream seed a b salt =
    let open Int64 in
    let h = add seed (mul (of_int (Node_id.to_int a)) 0x9E3779B97F4A7C15L) in
    let h = add h (mul (of_int (Node_id.to_int b)) 0xBF58476D1CE4E5B9L) in
    Rng.create (add h salt)

  let endpoint hub ~self =
    {
      e_base = B.endpoint hub.b_hub ~self;
      e_self = self;
      e_send_rng =
        (if active then
           List.map (fun p -> (p, edge_stream C.seed self p 0x94D049BB133111EBL)) hub.b_ids
         else []);
      e_recv_rng =
        (if active then
           List.map (fun p -> (p, edge_stream C.seed p self 0xD6E8FEB86659FD93L)) hub.b_ids
         else []);
      e_round = 0;
      e_in_held = [];
      e_inj = { inj_lost = 0; inj_dup = 0; inj_delayed = 0 };
      e_events = [];
    }

  let edge_rng edges id =
    match List.find_opt (fun (p, _) -> Node_id.equal p id) edges with
    | Some (_, rng) -> Some rng
    | None -> None

  let event ep ~round what = ep.e_events <- { fe_round = round; fe_what = what } :: ep.e_events

  (* Faults touch Data frames only. Done/Halt markers ride a reliable
     control plane: the liveness tracker is about *process* liveness,
     and a lossy wire must not make a running peer look dead. *)
  let send ep ~dst (f : Frame.t) =
    if (not active) || f.Frame.kind <> Frame.Data then B.send ep.e_base ~dst f
    else
      match edge_rng ep.e_send_rng dst with
      | None -> B.send ep.e_base ~dst f
      | Some rng ->
          let round = f.Frame.round in
          let p_omit = Ubpa_faults.send_omission_prob C.plan ~node:ep.e_self ~round in
          let p_loss = Ubpa_faults.loss C.plan in
          if p_omit > 0. && Rng.float rng 1.0 < p_omit then begin
            ep.e_inj.inj_lost <- ep.e_inj.inj_lost + 1;
            event ep ~round
              (Printf.sprintf "fault: send-omission drop #%d->#%d"
                 (Node_id.to_int ep.e_self) (Node_id.to_int dst))
          end
          else if p_loss > 0. && Rng.float rng 1.0 < p_loss then begin
            ep.e_inj.inj_lost <- ep.e_inj.inj_lost + 1;
            event ep ~round
              (Printf.sprintf "fault: loss #%d->#%d" (Node_id.to_int ep.e_self)
                 (Node_id.to_int dst))
          end
          else B.send ep.e_base ~dst f

  let flush ep = B.flush ep.e_base

  (* Held frames whose release round has come, oldest first. *)
  let matured ep =
    let due, keep = List.partition (fun h -> h.hi_release <= ep.e_round) ep.e_in_held in
    ep.e_in_held <- keep;
    List.rev_map (fun h -> h.hi_frame) due

  let note_round ep r =
    ep.e_round <- r;
    matured ep

  let faulted ep raw =
    let out = ref [] in
    List.iter
      (fun (f : Frame.t) ->
        if f.Frame.kind <> Frame.Data then out := f :: !out
        else
          match edge_rng ep.e_recv_rng f.Frame.src with
          | None -> out := f :: !out
          | Some rng -> (
              (* Windows are evaluated at the delivery round (send
                 round + 1), matching the simulator's convention. *)
              let at = f.Frame.round + 1 in
              let p_recv = Ubpa_faults.recv_omission_prob C.plan ~node:ep.e_self ~round:at in
              if p_recv > 0. && Rng.float rng 1.0 < p_recv then begin
                ep.e_inj.inj_lost <- ep.e_inj.inj_lost + 1;
                event ep ~round:at
                  (Printf.sprintf "fault: recv-omission drop from #%d"
                     (Node_id.to_int f.Frame.src))
              end
              else begin
                (match Ubpa_faults.delay_spec C.plan ~node:ep.e_self ~round:at with
                | Some (dp, dr) when Rng.float rng 1.0 < dp ->
                    ep.e_inj.inj_delayed <- ep.e_inj.inj_delayed + 1;
                    event ep ~round:at
                      (Printf.sprintf "fault: delay +%dr from #%d (sent r%d)" dr
                         (Node_id.to_int f.Frame.src) f.Frame.round);
                    ep.e_in_held <-
                      { hi_release = f.Frame.round + dr; hi_frame = f } :: ep.e_in_held
                | _ -> out := f :: !out);
                (* Duplication is receiver-side: a copy is held one
                   round and surfaces in the next — where the
                   synchronizer deterministically counts it late and
                   drops it, the runtime analogue of the simulator's
                   per-round dedup absorbing a same-round copy. *)
                let p_dup = Ubpa_faults.dup C.plan in
                if p_dup > 0. && Rng.float rng 1.0 < p_dup then begin
                  ep.e_inj.inj_dup <- ep.e_inj.inj_dup + 1;
                  event ep ~round:at
                    (Printf.sprintf "fault: duplicate (next round) from #%d"
                       (Node_id.to_int f.Frame.src));
                  ep.e_in_held <-
                    { hi_release = f.Frame.round + 1; hi_frame = f } :: ep.e_in_held
                end
              end))
      raw;
    (* A frame that arrived after its release round (a late frame's
       duplicate) surfaces at once. Matured held frames come first
       (they are older), then this read's arrivals in order. A
       released frame's send round is behind the receiver's current
       round by construction, so the synchronizer deterministically
       counts it late. *)
    let due = matured ep in
    due @ List.rev !out

  let recv ep ~from ~timeout =
    match B.recv ep.e_base ~from ~timeout with
    | Ok raw when active -> Ok (faulted ep raw)
    | r -> r

  let close hub = B.close hub.b_hub
  let injected ep = ep.e_inj
  let fault_events ep = List.rev ep.e_events
end
