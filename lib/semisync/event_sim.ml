open Ubpa_util
open Ubpa_sim

module Make (P : Protocol.S) = struct
  type node = {
    id : Node_id.t;
    mutable state : P.state;
    mutable inbox : (Node_id.t * P.message) list;  (** newest first *)
    mutable local_round : int;
    mutable halted : bool;
    mutable last_output : P.output option;
    mutable decided_at : float option;
  }

  type event = Tick of Node_id.t | Deliver of Node_id.t * Node_id.t * P.message

  type t = {
    round_duration : float;
    delay : src:Node_id.t -> dst:Node_id.t -> at:float -> float;
    mutable agenda : (float * int * event) list;  (** time-ordered *)
    mutable seq : int;  (** tie-break so the agenda is a stable order *)
    mutable clock : float;
    mutable max_delay : float;
    nodes : node Node_id.Map.t;
  }

  let create ?(round_duration = 1.0) ~delay ~nodes () =
    let index = Interner.of_ids (List.map fst nodes) in
    let map =
      List.fold_left
        (fun acc (id, input) ->
          Node_id.Map.add id
            {
              id;
              state = P.init ~self:id ~round:0 ~index input;
              inbox = [];
              local_round = 0;
              halted = false;
              last_output = None;
              decided_at = None;
            }
            acc)
        Node_id.Map.empty nodes
    in
    let t =
      {
        round_duration;
        delay;
        agenda = [];
        seq = 0;
        clock = 0.;
        max_delay = 0.;
        nodes = map;
      }
    in
    Node_id.Map.iter
      (fun id _ ->
        t.seq <- t.seq + 1;
        t.agenda <- (round_duration, t.seq, Tick id) :: t.agenda)
      map;
    t

  let schedule t time event =
    t.seq <- t.seq + 1;
    let entry = (time, t.seq, event) in
    (* Insert keeping the agenda sorted by (time, seq). *)
    let rec insert = function
      | [] -> [ entry ]
      | ((time', seq', _) as hd) :: tl ->
          if time' < time || (time' = time && seq' < t.seq) then
            hd :: insert tl
          else entry :: hd :: tl
    in
    t.agenda <- insert t.agenda

  let send t ~src ~at (dest, payload) =
    let targets =
      match dest with
      | Envelope.To id -> [ id ]
      | Envelope.Broadcast ->
          Node_id.Map.fold (fun id _ acc -> id :: acc) t.nodes []
    in
    List.iter
      (fun dst ->
        let d = t.delay ~src ~dst ~at in
        if d <= 0. then invalid_arg "Event_sim: delays must be positive";
        if d > t.max_delay then t.max_delay <- d;
        schedule t (at +. d) (Deliver (dst, src, payload)))
      targets

  let dedup_inbox inbox =
    (* Oldest first; drop repeated (sender, payload) pairs like the
       synchronous engine does per round. *)
    let rec go seen = function
      | [] -> []
      | ((src, payload) as m) :: rest ->
          if
            List.exists
              (fun (s, p) -> Node_id.equal s src && P.equal_message p payload)
              seen
          then go seen rest
          else m :: go (m :: seen) rest
    in
    go [] (List.rev inbox)

  let tick t node ~at =
    if not node.halted then begin
      node.local_round <- node.local_round + 1;
      let inbox =
        dedup_inbox node.inbox
        |> List.sort (fun (a, _) (b, _) -> Node_id.compare a b)
      in
      node.inbox <- [];
      let state, sends, status =
        P.step ~self:node.id ~round:node.local_round ~stim:[] node.state ~inbox
      in
      node.state <- state;
      List.iter (send t ~src:node.id ~at) sends;
      (match status with
      | Protocol.Continue -> ()
      | Protocol.Deliver out ->
          if node.decided_at = None then node.decided_at <- Some at;
          node.last_output <- Some out
      | Protocol.Stop out ->
          if node.decided_at = None then node.decided_at <- Some at;
          node.last_output <- Some out;
          node.halted <- true);
      if not node.halted then
        schedule t (at +. t.round_duration) (Tick node.id)
    end

  let all_halted t = Node_id.Map.for_all (fun _ n -> n.halted) t.nodes
  let now t = t.clock

  let run ~until t =
    let rec go () =
      if all_halted t then ()
      else
        match t.agenda with
        | [] -> ()
        | (time, _, event) :: rest ->
            if time > until then ()
            else begin
              t.agenda <- rest;
              t.clock <- time;
              (match event with
              | Tick id -> tick t (Node_id.Map.find id t.nodes) ~at:time
              | Deliver (dst, src, payload) ->
                  let node = Node_id.Map.find dst t.nodes in
                  if not node.halted then
                    node.inbox <- (src, payload) :: node.inbox);
              go ()
            end
    in
    go ()

  let outputs t =
    Node_id.Map.fold (fun id n acc -> (id, n.last_output) :: acc) t.nodes []
    |> List.rev

  let decided_at t id = (Node_id.Map.find id t.nodes).decided_at
  let max_delay_assigned t = t.max_delay

  let messages_in_flight t =
    List.length
      (List.filter (fun (_, _, e) -> match e with Deliver _ -> true | Tick _ -> false) t.agenda)
end
