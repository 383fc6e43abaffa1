open Ubpa_util

module Make (P : Protocol.S) = struct
  type node = {
    id : Node_id.t;
    joined_at : int;
    mutable state : P.state;
    mutable first_output_round : int option;
    mutable last_output : P.output option;
    mutable halted_at : int option;
    mutable down_since : int option;
  }

  let node ~index ~round id input =
    {
      id;
      joined_at = round;
      state = P.init ~self:id ~round ~index input;
      first_output_round = None;
      last_output = None;
      halted_at = None;
      down_since = None;
    }

  let active n = n.halted_at = None && n.down_since = None

  type t = {
    tr : Trace.t;
    mutable round : int;
    mutable nodes : node array;
    mutable pending : P.message Envelope.t list;
  }

  let create ?(trace = Trace.disabled) nodes =
    { tr = trace; round = 0; nodes; pending = [] }

  let active_ids t =
    Array.fold_right
      (fun n acc -> if active n then n.id :: acc else acc)
      t.nodes []

  let find t id = Array.find_opt (fun n -> Node_id.equal n.id id) t.nodes

  let collect t f =
    Array.fold_right
      (fun n acc -> match f n with Some x -> (n.id, x) :: acc | None -> acc)
      t.nodes []

  let take_pending t =
    let envelopes = List.rev t.pending in
    t.pending <- [];
    envelopes

  type step =
    P.state * (Envelope.dest * P.message) list * P.output Protocol.status

  let call t n ~stim state ~inbox =
    P.step ~self:n.id ~round:t.round ~stim state ~inbox

  (* A loop rather than [List.iter]: no closure per node step. *)
  let rec emit t n send = function
    | [] -> ()
    | (dst, payload) :: rest ->
        let env = { Envelope.src = n.id; dst; payload } in
        if send n env then begin
          (* Per send, even the unformatted call is skipped on a disabled
             trace: its closures were 2.5 % of all allocation in an
             untraced 61-node consensus run. *)
          if Trace.enabled t.tr then
            Trace.recordf t.tr ~round:t.round ~node:n.id ~kind:Trace.Send
              "send %a" (Envelope.pp P.pp_message) env;
          t.pending <- env :: t.pending
        end;
        emit t n send rest

  let output t n out =
    if n.first_output_round = None then n.first_output_round <- Some t.round;
    n.last_output <- Some out

  let apply t n ~send ((state, sends, status) : step) =
    n.state <- state;
    emit t n send sends;
    match status with
    | Protocol.Continue -> ()
    | Protocol.Deliver out ->
        output t n out;
        Trace.record t.tr ~round:t.round ~node:n.id ~kind:Trace.Output "output"
    | Protocol.Stop out ->
        output t n out;
        n.halted_at <- Some t.round;
        Trace.record t.tr ~round:t.round ~node:n.id ~kind:Trace.Halt "halt"

  let step t ~inbox ~supply ~send =
    Array.iteri
      (fun i n -> if active n then apply t n ~send (supply i n (inbox n.id)))
      t.nodes

  let send_byzantine t (env : P.message Envelope.t) =
    if Trace.enabled t.tr then
      Trace.recordf t.tr ~round:t.round ~node:env.src ~kind:Trace.Byz_send
        "byz-send %a" (Envelope.pp P.pp_message) env;
    t.pending <- env :: t.pending

  let all_halted t ~written_off =
    Array.for_all
      (fun n -> n.halted_at <> None || (n.down_since <> None && written_off n))
      t.nodes

  let stalled t =
    Array.fold_right
      (fun n acc -> if n.halted_at = None then n.id :: acc else acc)
      t.nodes []

  let run t ~max_rounds ~until ~step ~after =
    let rec go () =
      if until () then `Done
      else if t.round >= max_rounds then `Max_rounds_reached (stalled t)
      else begin
        step ();
        after ();
        go ()
      end
    in
    go ()
end
