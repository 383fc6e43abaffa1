(* Bounded, exhaustive explorer over per-round adversary choices.

   Frontier-based BFS over configurations (round, per-node protocol
   states, pending envelopes). Configurations are stored as adversary
   scripts and re-executed on expansion (protocol states are mutable, so
   a config is cheapest to materialize by replaying its script from the
   root); within one expansion the replayed simulation is branched into
   siblings that step each (node, delivered inbox) once ([memo]).
   Expansion runs on the multicore Pool in strict submission order and
   dedup keeps first occurrences, so results are byte-identical at any
   --jobs. See docs/CHECKING.md. *)

open Ubpa_util
module Protocol = Ubpa_sim.Protocol
module Envelope = Ubpa_sim.Envelope
module Delivery = Ubpa_sim.Delivery
module Trace = Ubpa_sim.Trace

type stats = {
  roots : int;  (** root input assignments explored *)
  explored : int;  (** configurations expanded (successors generated) *)
  distinct : int;  (** distinct canonical configurations *)
  dedup_hits : int;  (** successors folded into an existing config *)
  sym_skips : int;  (** choice vectors pruned by recipient symmetry *)
  frontier_peak : int;
  depth : int;  (** deepest fully explored round *)
}

type verdict = Verified | Violated | Out_of_budget

let verdict_to_string = function
  | Verified -> "verified"
  | Violated -> "violation"
  | Out_of_budget -> "out-of-budget"

(** Protocol-agnostic counterexample summary; the replayable JSONL trace
    uses the standard {!Ubpa_sim.Trace} vocabulary. *)
type cex = {
  cx_root : string;
  cx_property : string;
  cx_detail : string;
  cx_round : int;
  cx_byz_msgs : int;  (** byz messages left after minimization *)
  cx_crashes : int;
  cx_omits : int;
  cx_jsonl : string;
  cx_replayed : bool;  (** the minimized script reproduces the violation *)
}

type result = { verdict : verdict; stats : stats; cex : cex option }

module Make (M : Model.S) = struct
  module P = M.P

  type action = {
    crash : Node_id.t option;  (** crash-stop applied before delivery *)
    omit : (Node_id.t * Node_id.t) option;
        (** receive-omission: (src, dst) deliveries dropped this round *)
    byz : (Node_id.t * Node_id.t * P.message) list;
        (** (byz, recipient, payload) unicasts sent this round, arriving
            next round — the rushing adversary's move *)
  }

  let silent_action = { crash = None; omit = None; byz = [] }

  type cnode = {
    cn_id : Node_id.t;
    cn_input : P.input;
    mutable cn_state : P.state;
    mutable cn_key : string Lazy.t;  (** [M.state_key cn_state] *)
    mutable cn_first_output : int option;
    mutable cn_output : P.output option;
    mutable cn_halted : int option;
    mutable cn_down : int option;
  }

  type sim = {
    nodes : cnode array;  (** correct, ascending id *)
    byz_ids : Node_id.t list;  (** ascending *)
    tr : Trace.t;
    mutable round : int;
    mutable pending : P.message Envelope.t list;  (** delivery order *)
  }

  let make_sim ?(trace = Trace.disabled) ~correct ~byzantine () =
    let correct =
      List.sort (fun (a, _) (b, _) -> Node_id.compare a b) correct
    in
    (* One sender index per simulation, shared by every state copied from
       it; nothing registers after this point, so worker domains may read
       it concurrently. *)
    let index = Interner.of_ids (List.map fst correct @ byzantine) in
    let nodes =
      Array.of_list
        (List.map
           (fun (id, input) ->
             let state = P.init ~self:id ~round:1 ~index input in
             {
               cn_id = id;
               cn_input = input;
               cn_state = state;
               cn_key = lazy (M.state_key state);
               cn_first_output = None;
               cn_output = None;
               cn_halted = None;
               cn_down = None;
             })
           correct)
    in
    {
      nodes;
      byz_ids = Node_id.sorted byzantine;
      tr = trace;
      round = 0;
      pending = [];
    }

  (* A sibling of [base]: fresh node records over [base]'s states and
     keys. Stepping it under the expansion's [memo] rebinds the
     sibling's fields and never mutates a state it shares. *)
  let sibling base =
    {
      base with
      nodes = Array.map (fun n -> { n with cn_state = n.cn_state }) base.nodes;
    }

  let active n = n.cn_halted = None && n.cn_down = None
  let active_ids sim =
    Array.to_list sim.nodes |> List.filter active |> List.map (fun n -> n.cn_id)

  (* Engine parity: halted or permanently down (checker crashes are
     crash-stop, so a down node is written off like Network.all_halted
     writes off Ubpa_faults.permanently_down victims). *)
  let all_done sim =
    Array.for_all (fun n -> n.cn_halted <> None || n.cn_down <> None) sim.nodes

  (* Engine parity: Network.stalled lists every non-halted correct node,
     ascending, including downed ones. *)
  let stalled sim =
    Array.to_list sim.nodes
    |> List.filter (fun n -> n.cn_halted = None)
    |> List.map (fun n -> n.cn_id)

  let find_node sim id =
    let rec go i =
      if i >= Array.length sim.nodes then None
      else if Node_id.equal sim.nodes.(i).cn_id id then Some sim.nodes.(i)
      else go (i + 1)
    in
    go 0

  (* One node's step, with its state key deferred until first asked for. *)
  type stepped = {
    s_inbox : (Node_id.t * P.message) list;
    s_state : P.state;
    s_key : string Lazy.t;
    s_sends : (Envelope.dest * P.message) list;
    s_status : P.output Protocol.status;
  }

  let step_node ~self ~round state ~inbox =
    let state, sends, status = P.step ~self ~round ~stim:[] state ~inbox in
    {
      s_inbox = inbox;
      s_state = state;
      s_key = lazy (M.state_key state);
      s_sends = sends;
      s_status = status;
    }

  (* The step memo of one expansion: per node, one entry per distinct
     delivered inbox (after routing and the omission filter). The
     siblings of an expansion share the round and every base state, and
     a step is a deterministic function of (self, round, state, inbox),
     so siblings that deliver a node the same inbox share one stepped
     state, its sends, status and key. Sharing is safe because a sibling
     is only read after its one step (properties, [all_done], vector
     enumeration, [config_key]); the next layer replays from scripts. *)
  type memo = stepped list array

  let memo_create sim : memo = Array.make (Array.length sim.nodes) []

  (* Senders first; then payloads, by [==] before [P.equal_message]:
     siblings deliver the physically same correct payloads. *)
  let same_inbox a b =
    List.equal (fun (s, _) (s', _) -> Node_id.equal s s') a b
    && List.for_all2
         (fun (_, m) (_, m') -> m == m' || P.equal_message m m')
         a b

  (* Node [i] of a sibling, still holding its base state: on a miss the
     base state is copied and stepped, on a hit the stored step is
     reused as is. *)
  let memo_step (memo : memo) i n ~round ~inbox =
    match List.find_opt (fun s -> same_inbox s.s_inbox inbox) memo.(i) with
    | Some s -> s
    | None ->
        let s =
          step_node ~self:n.cn_id ~round (M.copy_state n.cn_state) ~inbox
        in
        memo.(i) <- s :: memo.(i);
        s

  (* One synchronous round under adversary action [a]. Mirrors
     Network.step_round for the checked fragment: fault transitions, then
     delivery (via the engine's own reference delivery core, so dedup,
     stable sender sort and broadcast-includes-sender semantics are
     inherited rather than re-implemented), then correct nodes in
     ascending id order, then the rushing adversary's scripted sends.
     Under [memo] the nodes step through the expansion's step memo. *)
  let step ?memo sim (a : action) =
    sim.round <- sim.round + 1;
    let round = sim.round in
    let tr = sim.tr in
    if round = 1 then begin
      Array.iter
        (fun n ->
          Trace.recordf tr ~round ~node:n.cn_id ~kind:Trace.Join
            "join (correct)")
        sim.nodes;
      List.iter
        (fun id ->
          Trace.recordf tr ~round ~node:id ~kind:Trace.Join
            "join (byzantine scripted)")
        sim.byz_ids
    end;
    (match a.crash with
    | None -> ()
    | Some id -> (
        match find_node sim id with
        | Some n when active n ->
            n.cn_down <- Some round;
            Trace.recordf tr ~round ~node:id ~kind:Trace.Fault "fault: crash"
        | _ -> ()));
    let present =
      Node_id.Set.union
        (Node_id.Set.of_list (active_ids sim))
        (Node_id.Set.of_list sim.byz_ids)
    in
    let inboxes, _delivered =
      Delivery.route_reference ~equal:P.equal_message ~present
        ~envelopes:sim.pending ()
    in
    let inbox_of id =
      let inbox =
        match Node_id.Map.find_opt id inboxes with Some l -> l | None -> []
      in
      match a.omit with
      | Some (src, dst) when Node_id.equal dst id ->
          List.filter
            (fun (s, payload) ->
              if Node_id.equal s src then begin
                Trace.recordf tr ~round ~node:dst ~kind:Trace.Fault
                  "fault: recv-omission drop from %a: %a" Node_id.pp src
                  P.pp_message payload;
                false
              end
              else true)
            inbox
      | _ -> inbox
    in
    let correct_envs = ref [] in
    Array.iteri
      (fun i n ->
        if active n then begin
          let inbox = inbox_of n.cn_id in
          let s =
            match memo with
            | None -> step_node ~self:n.cn_id ~round n.cn_state ~inbox
            | Some memo -> memo_step memo i n ~round ~inbox
          in
          n.cn_state <- s.s_state;
          n.cn_key <- s.s_key;
          List.iter
            (fun (dst, payload) ->
              let env = { Envelope.src = n.cn_id; dst; payload } in
              (* As in Network: per send, skip even the unformatted call. *)
              if Trace.enabled tr then
                Trace.recordf tr ~round ~node:n.cn_id ~kind:Trace.Send
                  "send %a"
                  (Envelope.pp P.pp_message)
                  env;
              correct_envs := env :: !correct_envs)
            s.s_sends;
          match s.s_status with
          | Protocol.Continue -> ()
          | Protocol.Deliver out ->
              if n.cn_first_output = None then n.cn_first_output <- Some round;
              n.cn_output <- Some out;
              Trace.recordf tr ~round ~node:n.cn_id ~kind:Trace.Output "output"
          | Protocol.Stop out ->
              if n.cn_first_output = None then n.cn_first_output <- Some round;
              n.cn_output <- Some out;
              n.cn_halted <- Some round;
              Trace.recordf tr ~round ~node:n.cn_id ~kind:Trace.Halt "halt"
        end)
      sim.nodes;
    let byz_envs =
      List.map
        (fun (src, dst, payload) ->
          let env = { Envelope.src; dst = Envelope.To dst; payload } in
          if Trace.enabled tr then
            Trace.recordf tr ~round ~node:src ~kind:Trace.Byz_send
              "byz-send %a"
              (Envelope.pp P.pp_message)
              env;
          env)
        a.byz
    in
    sim.pending <- List.rev !correct_envs @ byz_envs

  (* ---------------------------------------------------------------- *)
  (* Properties                                                        *)
  (* ---------------------------------------------------------------- *)

  let observations sim =
    Array.to_list sim.nodes
    |> List.map (fun n ->
           {
             Model.ob_id = n.cn_id;
             ob_input = n.cn_input;
             ob_halted = n.cn_halted <> None;
             ob_down = n.cn_down <> None;
             ob_output = n.cn_output;
           })

  let check_properties ~props sim =
    let obs = observations sim in
    List.find_map
      (fun (name, f) ->
        match f ~round:sim.round obs with
        | Some detail -> Some (name, detail)
        | None -> None)
      props

  (* ---------------------------------------------------------------- *)
  (* Canonical configuration key                                       *)
  (* ---------------------------------------------------------------- *)

  (* Keys are binary and prefix-free ({!Key}). Protocol messages have no
     binary writer of their own, so a payload is keyed by its printed
     form: [payload] is a per-expansion memo that prints each distinct
     message once (see [payload_writer]). *)

  module Pmap = Map.Make (struct
    type t = P.message

    let compare = P.compare_message
  end)

  (* A fresh memo per call, so Pool workers never share one. *)
  let payload_writer () =
    let memo = ref Pmap.empty in
    fun b m ->
      let s =
        match Pmap.find_opt m !memo with
        | Some s -> s
        | None ->
            let s = Fmt.str "%a" P.pp_message m in
            memo := Pmap.add m s !memo;
            s
      in
      Key.string b s

  let envelope_key ~payload b (env : P.message Envelope.t) =
    Key.id b env.src;
    (match env.dst with
    | Envelope.Broadcast -> Key.tag b 0
    | Envelope.To dst ->
        Key.tag b 1;
        Key.id b dst);
    payload b env.payload

  (* Everything but the round's Byzantine vector, which [byz_vectors]
     keys separately as a [vector_suffix]. Node state keys come from
     [cn_key], so a state shared by siblings is keyed once. *)
  let config_key ~payload sim =
    let b = Buffer.create 1024 in
    Key.int b sim.round;
    Key.int b (Array.length sim.nodes);
    Array.iter
      (fun n ->
        Key.id b n.cn_id;
        Key.option Key.int b n.cn_halted;
        Key.option Key.int b n.cn_down;
        Key.string b (Lazy.force n.cn_key);
        Key.option (fun b o -> Key.string b (M.output_key o)) b n.cn_output)
      sim.nodes;
    Key.list (envelope_key ~payload) b sim.pending;
    Buffer.contents b

  (* A Byzantine vector's key: its entry count, then each entry's
     envelope key, in (sender, recipient) order. *)
  let vector_suffix frags =
    let b = Buffer.create 64 in
    Key.int b (List.length frags);
    List.iter (Buffer.add_string b) frags;
    Buffer.contents b

  let silent_suffix = vector_suffix []

  (* ---------------------------------------------------------------- *)
  (* Scripted replay (counterexamples, differential tests, monitors)   *)
  (* ---------------------------------------------------------------- *)

  type replay_outcome = {
    finished : [ `All_halted | `Max_rounds_reached of Node_id.t list ];
    rounds : int;
    violation : (string * string * int) option;
        (** (property, detail, round) — first violation observed *)
    outputs : (Node_id.t * P.output) list;
    state_keys : (Node_id.t * string) list;
    halted : (Node_id.t * int) list;
  }

  (* Replay [actions], then keep stepping silent rounds until every node
     halted (or is written off) or [max_rounds] is reached — the same
     loop shape as Network.run. A [monitor] observes after every round
     and sees every trace event, exactly like Harness.execute wires it
     for the simulator cores. *)
  let replay ?trace ?monitor ?(max_rounds = 16) ~correct ~byzantine ~actions
      () =
    let trace =
      match (trace, monitor) with
      | Some tr, _ -> tr
      | None, Some _ -> Trace.create ()
      | None, None -> Trace.disabled
    in
    (match monitor with
    | Some m when Trace.enabled trace ->
        Trace.subscribe trace (Ubpa_monitor.observe_event m)
    | _ -> ());
    let sim = make_sim ~trace ~correct ~byzantine () in
    let props = M.properties ~correct:(List.map fst correct) ~byzantine in
    let violation = ref None in
    let observe () =
      (match monitor with
      | None -> ()
      | Some m ->
          Ubpa_monitor.observe m ~round:sim.round
            (Array.to_list sim.nodes
            |> List.map (fun n ->
                   {
                     Ubpa_monitor.node = n.cn_id;
                     joined_at = 1;
                     halted_at = n.cn_halted;
                     down = n.cn_down <> None;
                     output = n.cn_output;
                   })));
      if !violation = None then
        match check_properties ~props sim with
        | Some (prop, detail) ->
            violation := Some (prop, detail, sim.round);
            Trace.recordf trace ~round:sim.round ~kind:Trace.Engine
              "violation %s: %s" prop detail
        | None -> ()
    in
    let actions = ref actions in
    let next_action () =
      match !actions with
      | [] -> silent_action
      | a :: rest ->
          actions := rest;
          a
    in
    let rec go () =
      if all_done sim && !actions = [] then `All_halted
      else if sim.round >= max_rounds then `Max_rounds_reached (stalled sim)
      else begin
        step sim (next_action ());
        observe ();
        go ()
      end
    in
    let finished = go () in
    {
      finished;
      rounds = sim.round;
      violation = !violation;
      outputs =
        Array.to_list sim.nodes
        |> List.filter_map (fun n ->
               Option.map (fun o -> (n.cn_id, o)) n.cn_output);
      state_keys =
        Array.to_list sim.nodes
        |> List.map (fun n -> (n.cn_id, M.state_key n.cn_state));
      halted =
        Array.to_list sim.nodes
        |> List.filter_map (fun n ->
               Option.map (fun r -> (n.cn_id, r)) n.cn_halted);
    }

  (* ---------------------------------------------------------------- *)
  (* Counterexample minimization                                       *)
  (* ---------------------------------------------------------------- *)

  let byz_count actions =
    List.fold_left (fun acc a -> acc + List.length a.byz) 0 actions

  let still_violates ~correct ~byzantine ~max_rounds ~round actions =
    let o = replay ~max_rounds ~correct ~byzantine ~actions () in
    match o.violation with Some (_, _, r) -> r <= round | None -> false

  (* Greedy shrink: repeatedly try replacing one scripted byz message (or
     one crash / omission) with silence, keeping the drop whenever some
     violation still occurs no later than the original round. Quadratic
     in the (tiny) script size; deterministic. *)
  let minimize ~correct ~byzantine ~max_rounds ~round actions =
    let shrink_once actions =
      let rec try_round i =
        if i >= List.length actions then None
        else
          let a = List.nth actions i in
          let candidates =
            (match a.crash with
            | Some _ -> [ { a with crash = None } ]
            | None -> [])
            @ (match a.omit with
              | Some _ -> [ { a with omit = None } ]
              | None -> [])
            @ List.mapi
                (fun j _ ->
                  { a with byz = List.filteri (fun k _ -> k <> j) a.byz })
                a.byz
          in
          let replaced a' = List.mapi (fun k x -> if k = i then a' else x) actions in
          match
            List.find_map
              (fun a' ->
                let actions' = replaced a' in
                if still_violates ~correct ~byzantine ~max_rounds ~round actions'
                then Some actions'
                else None)
              candidates
          with
          | Some actions' -> Some actions'
          | None -> try_round (i + 1)
      in
      try_round 0
    in
    let rec fix actions =
      match shrink_once actions with Some a -> fix a | None -> actions
    in
    (* Drop trailing all-silent actions first; the violation round bounds
       the useful script length. *)
    let truncated = List.filteri (fun i _ -> i < round) actions in
    let start =
      if still_violates ~correct ~byzantine ~max_rounds ~round truncated then
        truncated
      else actions
    in
    fix start

  (* ---------------------------------------------------------------- *)
  (* Exhaustive check                                                  *)
  (* ---------------------------------------------------------------- *)

  type vec = (Node_id.t * Node_id.t * P.message) list

  (* The frontier holds sibling GROUPS, not single configurations: all
     configs sharing the script [gr_prefix] plus round-[k] benign action
     [gr_benign] and differing only in the round-[k] byz vector (one
     entry of [gr_vectors]). Siblings have identical protocol states —
     byz sends only extend [pending] — so one replay serves the whole
     group, and a successor costs a route plus a step and a key per
     distinct delivered inbox ([memo]). [gr_benign = None] only for the
     root (round 0, no action yet). *)
  type group = {
    gr_prefix : action list;  (** newest first; rounds 1..k-1 *)
    gr_benign : action option;  (** round k's benign action, [byz = []] *)
    gr_vectors : vec list;
    gr_crashes : int;  (** crash events used through round k *)
    gr_omits : int;
  }

  type succ =
    | S_violation of { property : string; detail : string; round : int;
                       script : action list (* newest first *) }
    | S_brood of {
        b_prefix : action list;
            (** the parent config's full script, newest first *)
        b_benign : action;  (** round k+1 benign action, [byz = []] *)
        b_base : string;  (** [config_key] of the stepped configuration *)
        b_keyed : (vec * string) list;
            (** each candidate round-k+1 byz vector with its
                [vector_suffix]; a candidate's canonical key is the pair
                (base, suffix) *)
        b_terminal : bool;
        b_round : int;
        b_crashes : int;
        b_omits : int;
      }

  (* Choice-vector enumeration for the scripted byz sends of one round.
     Each recipient gets a {e column}: one palette option (or silence) per
     byz sender. Permuting two interchangeable recipients permutes their
     whole columns simultaneously across every sender, so the sound
     canonical form under [symmetry] requires columns to be
     lexicographically non-decreasing within a clone class (identical
     input and identical adversary history, neither pinned) — per-sender
     sorting alone would prune both representatives of some orbits when
     several byz senders are in play. *)
  let byz_vectors ~payload ~symmetry ~palette ~byz ~recipients ~clone_class =
    let opts = Array.of_list palette in
    let n_opts = 1 + Array.length opts in
    let byz = Array.of_list byz in
    let nb = Array.length byz in
    let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
    let n_cols = pow n_opts nb in
    (* column [c] decoded most-significant-first, so numeric order on the
       index IS lex order on the decoded option arrays *)
    let columns =
      Array.init n_cols (fun c ->
          let a = Array.make nb 0 in
          let c = ref c in
          for i = nb - 1 downto 0 do
            a.(i) <- !c mod n_opts;
            c := !c / n_opts
          done;
          a)
    in
    let tagged =
      List.map
        (fun r -> (r, if symmetry then clone_class r else None))
        recipients
    in
    (* group equal classes adjacently (stable, so ascending id within) *)
    let tagged =
      List.stable_sort
        (fun (_, a) (_, b) ->
          match (a, b) with
          | Some x, Some y -> String.compare x y
          | Some _, None -> -1
          | None, Some _ -> 1
          | None, None -> 0)
        tagged
    in
    let total = pow n_cols (List.length tagged) in
    (* entry and key fragment per (recipient, byz, option), so the hot
       leaf path below never encodes or builds an entry — it only sorts
       and concatenates, and every vector shares the entries *)
    let frag =
      List.map
        (fun (r, _) ->
          ( r,
            Array.init nb (fun i ->
                Array.init (n_opts - 1) (fun o ->
                    ( (byz.(i), r, opts.(o)),
                      Key.to_string
                        (envelope_key ~payload)
                        (Envelope.send ~src:byz.(i) ~dst:r opts.(o)) ))) ))
        tagged
    in
    let vectors = ref [] and emitted = ref 0 in
    let rec go tagged frag prev acc =
      match (tagged, frag) with
      | [], _ ->
          incr emitted;
          let entries =
            List.sort
              (fun ((s1, d1, _), _) ((s2, d2, _), _) ->
                match Node_id.compare s1 s2 with
                | 0 -> Node_id.compare d1 d2
                | c -> c)
              acc
          in
          let vec = List.map fst entries in
          let suffix = vector_suffix (List.map snd entries) in
          vectors := (vec, suffix) :: !vectors
      | (_, cls) :: rest, (_, fr) :: frest ->
          let floor_ =
            match (prev, cls) with
            | Some (pc, pcol), Some c when String.equal pc c -> pcol
            | _ -> 0
          in
          for c = floor_ to n_cols - 1 do
            let col = columns.(c) in
            let acc' = ref acc in
            for i = 0 to nb - 1 do
              if col.(i) > 0 then acc' := fr.(i).(col.(i) - 1) :: !acc'
            done;
            go rest frest
              (match cls with Some cl -> Some (cl, c) | None -> None)
              !acc'
          done
      | _ -> assert false
    in
    go tagged frag None [];
    (List.rev !vectors, total - !emitted)

  (* Clone classes for the symmetry reduction: a recipient's class key
     is its input plus everything the adversary ever did to it
     specifically (scripted unicasts, omissions); crashed nodes are not
     recipients. Correct traffic is broadcast, so equal class keys mean
     the nodes are indistinguishable clones. *)
  let clone_classes ~payload ~pinned ~inputs script_oldest =
    fun id ->
      if List.exists (Node_id.equal id) pinned then None
      else
        let b = Buffer.create 64 in
        Key.option
          (fun b i -> Key.string b (M.input_key i))
          b
          (List.assoc_opt id inputs);
        List.iteri
          (fun i (a : action) ->
            let mine =
              List.filter_map
                (fun (src, dst, m) ->
                  if Node_id.equal dst id then Some (src, m) else None)
                a.byz
              |> List.sort (fun (s, m) (s', m') ->
                     match Node_id.compare s s' with
                     | 0 -> P.compare_message m m'
                     | c -> c)
            in
            if mine <> [] then begin
              Key.int b i;
              Key.tag b 0;
              Key.list
                (fun b (src, m) ->
                  Key.id b src;
                  payload b m)
                b mine
            end;
            match a.omit with
            | Some (src, dst) when Node_id.equal dst id ->
                Key.int b i;
                Key.tag b 1;
                Key.id b src
            | _ -> ())
          script_oldest;
        Some (Buffer.contents b)

  module Str_tbl = Hashtbl.Make (struct
    type t = string

    let equal = String.equal
    let hash = Hashtbl.hash
  end)

  module Pair_tbl = Hashtbl.Make (struct
    type t = int * string

    let equal (a, s) (b, t) = Int.equal a b && String.equal s t
    let hash = Hashtbl.hash
  end)

  type root_outcome =
    | R_verified of stats
    | R_violated of stats * cex
    | R_budget of stats

  let run_root ?jobs ~symmetry ~max_rounds ~max_states ~crash_budget
      ~omit_budget ~correct ~byzantine (root_label, inputs) =
    let correct_inputs = List.combine correct inputs in
    let props = M.properties ~correct ~byzantine in
    let pinned = M.pinned ~correct ~byzantine in
    let explored = ref 0 and dedup_hits = ref 0 and sym_skips = ref 0 in
    let frontier_peak = ref 0 and depth = ref 0 in
    (* Two-level dedup: each distinct base key is interned as a dense int
       in first-occurrence order, and [seen] holds (base id, suffix)
       pairs. Exact, because {!Key}'s writers are prefix-free: base ^
       suffix = base' ^ suffix' iff base = base' and suffix = suffix'. *)
    let base_ids = Str_tbl.create 4096 in
    let seen = Pair_tbl.create 4096 in
    let base_id key =
      match Str_tbl.find_opt base_ids key with
      | Some id -> id
      | None ->
          let id = Str_tbl.length base_ids in
          Str_tbl.add base_ids key id;
          id
    in
    let replay_script script_newest =
      let sim = make_sim ~correct:correct_inputs ~byzantine () in
      List.iter (step sim) (List.rev script_newest);
      sim
    in
    (* Expand one sibling group: replay the shared prefix once, take the
       shared benign step, then per sibling vector attach the byz
       envelopes, branch over the next round's benign events, step the
       sibling through the expansion's memo, check properties and
       enumerate the next canonical byz vectors. Pure, and the memo is
       local: safe on the Pool. *)
    let expand g =
      let payload = payload_writer () in
      let base = replay_script g.gr_prefix in
      (match g.gr_benign with None -> () | Some b -> step base b);
      let memo = memo_create base in
      let benign' =
        let crashes =
          if g.gr_crashes < crash_budget then
            None :: List.map (fun id -> Some id) (active_ids base)
          else [ None ]
        in
        let omits =
          if g.gr_omits < omit_budget then
            let dsts = active_ids base in
            let srcs =
              List.map (fun n -> n.cn_id) (Array.to_list base.nodes)
              @ base.byz_ids
            in
            None
            :: List.concat_map
                 (fun src ->
                   List.filter_map
                     (fun dst ->
                       if Node_id.equal src dst then None
                       else Some (Some (src, dst)))
                     dsts)
                 (Node_id.sorted srcs)
          else [ None ]
        in
        List.concat_map (fun c -> List.map (fun o -> (c, o)) omits) crashes
      in
      let succs = ref [] and skips = ref 0 in
      List.iter
        (fun w ->
          let parent_script =
            match g.gr_benign with
            | None -> []
            | Some b -> { b with byz = w } :: g.gr_prefix
          in
          let byz_envs =
            List.map
              (fun (src, dst, payload) ->
                { Envelope.src; dst = Envelope.To dst; payload })
              w
          in
          List.iter
            (fun (crash, omit) ->
              let sim' = sibling base in
              sim'.pending <- sim'.pending @ byz_envs;
              step ~memo sim' { crash; omit; byz = [] };
              let action' = { crash; omit; byz = [] } in
              match check_properties ~props sim' with
              | Some (property, detail) ->
                  succs :=
                    S_violation
                      {
                        property;
                        detail;
                        round = sim'.round;
                        script = action' :: parent_script;
                      }
                    :: !succs
              | None ->
                  let terminal = all_done sim' in
                  let vectors, skipped =
                    if terminal || sim'.round >= max_rounds then
                      ([ ([], silent_suffix) ], 0)
                    else
                      let palette =
                        M.palette ~arrival:(sim'.round + 1) ~correct
                          ~byzantine
                      in
                      if palette = [] || byzantine = [] then
                        ([ ([], silent_suffix) ], 0)
                      else
                        byz_vectors ~payload
                          ~symmetry:(symmetry && M.recipient_symmetric)
                          ~palette ~byz:base.byz_ids
                          ~recipients:(active_ids sim')
                          ~clone_class:
                            (clone_classes ~payload ~pinned
                               ~inputs:correct_inputs
                               (List.rev (action' :: parent_script)))
                  in
                  skips := !skips + skipped;
                  succs :=
                    S_brood
                      {
                        b_prefix = parent_script;
                        b_benign = action';
                        b_base = config_key ~payload sim';
                        b_keyed = vectors;
                        b_terminal = terminal;
                        b_round = sim'.round;
                        b_crashes =
                          (g.gr_crashes + if crash <> None then 1 else 0);
                        b_omits =
                          (g.gr_omits + if omit <> None then 1 else 0);
                      }
                    :: !succs)
            benign')
        g.gr_vectors;
      (List.rev !succs, !skips)
    in
    let stats () =
      {
        roots = 1;
        explored = !explored;
        distinct = Pair_tbl.length seen;
        dedup_hits = !dedup_hits;
        sym_skips = !sym_skips;
        frontier_peak = !frontier_peak;
        depth = !depth;
      }
    in
    let finish_violation (property, detail, round, script_newest) =
      let actions0 = List.rev script_newest in
      let actions =
        minimize ~correct:correct_inputs ~byzantine ~max_rounds ~round actions0
      in
      let tr = Trace.create () in
      let o =
        replay ~trace:tr ~max_rounds:round ~correct:correct_inputs ~byzantine
          ~actions ()
      in
      let replayed =
        match o.violation with Some (p, _, r) -> r <= round && p <> "" | None -> false
      in
      let property, detail =
        match o.violation with Some (p, d, _) -> (p, d) | None -> (property, detail)
      in
      R_violated
        ( stats (),
          {
            cx_root = root_label;
            cx_property = property;
            cx_detail = detail;
            cx_round = round;
            cx_byz_msgs = byz_count actions;
            cx_crashes =
              List.length (List.filter (fun a -> a.crash <> None) actions);
            cx_omits =
              List.length (List.filter (fun a -> a.omit <> None) actions);
            cx_jsonl = Trace.to_jsonl tr;
            cx_replayed = replayed;
          } )
    in
    let root_sim = make_sim ~correct:correct_inputs ~byzantine () in
    Pair_tbl.add seen
      (base_id (config_key ~payload:(payload_writer ()) root_sim), silent_suffix)
      ();
    let frontier =
      ref
        [
          {
            gr_prefix = [];
            gr_benign = None;
            gr_vectors = [ [] ];
            gr_crashes = 0;
            gr_omits = 0;
          };
        ]
    in
    let result = ref None in
    while !result = None && !frontier <> [] do
      let configs =
        List.fold_left (fun acc g -> acc + List.length g.gr_vectors) 0 !frontier
      in
      frontier_peak := max !frontier_peak configs;
      let expansions = Ubpa_harness.Pool.map ?jobs expand !frontier in
      explored := !explored + configs;
      let next = ref [] in
      (try
         List.iter
           (fun (succs, skips) ->
             sym_skips := !sym_skips + skips;
             List.iter
               (fun succ ->
                 match succ with
                 | S_violation { property; detail; round; script } ->
                     result :=
                       Some
                         (finish_violation (property, detail, round, script));
                     raise Exit
                 | S_brood
                     {
                       b_prefix;
                       b_benign;
                       b_base;
                       b_keyed;
                       b_terminal;
                       b_round;
                       b_crashes;
                       b_omits;
                     } ->
                     let id = base_id b_base in
                     let surviving =
                       List.filter_map
                         (fun (w, suffix) ->
                           if Pair_tbl.mem seen (id, suffix) then begin
                             incr dedup_hits;
                             None
                           end
                           else begin
                             Pair_tbl.add seen (id, suffix) ();
                             if Pair_tbl.length seen > max_states then begin
                               result := Some (R_budget (stats ()));
                               raise Exit
                             end;
                             Some w
                           end)
                         b_keyed
                     in
                     if surviving <> [] then begin
                       depth := max !depth b_round;
                       if (not b_terminal) && b_round < max_rounds then
                         next :=
                           {
                             gr_prefix = b_prefix;
                             gr_benign = Some b_benign;
                             gr_vectors = surviving;
                             gr_crashes = b_crashes;
                             gr_omits = b_omits;
                           }
                           :: !next
                     end)
               succs)
           expansions
       with Exit -> ());
      frontier := List.rev !next
    done;
    match !result with
    | Some r -> r
    | None -> R_verified (stats ())

  let add_stats a b =
    {
      roots = a.roots + b.roots;
      explored = a.explored + b.explored;
      distinct = a.distinct + b.distinct;
      dedup_hits = a.dedup_hits + b.dedup_hits;
      sym_skips = a.sym_skips + b.sym_skips;
      frontier_peak = max a.frontier_peak b.frontier_peak;
      depth = max a.depth b.depth;
    }

  let check ?jobs ?(symmetry = true) ?(max_states = 1_000_000)
      ?(crash_budget = 0) ?(omit_budget = 0) ?(seed = 7L) ~n ~f ~max_rounds ()
      =
    if f < 0 || f >= n then invalid_arg "Checker.check: need 0 <= f < n";
    let correct, byzantine =
      Ubpa_harness.Harness.split_population ~seed ~n_correct:(n - f) ~n_byz:f
    in
    let zero =
      {
        roots = 0;
        explored = 0;
        distinct = 0;
        dedup_hits = 0;
        sym_skips = 0;
        frontier_peak = 0;
        depth = 0;
      }
    in
    let rec go acc_stats = function
      | [] -> { verdict = Verified; stats = acc_stats; cex = None }
      | root :: rest -> (
          match
            run_root ?jobs ~symmetry ~max_rounds ~max_states ~crash_budget
              ~omit_budget ~correct ~byzantine root
          with
          | R_verified s -> go (add_stats acc_stats s) rest
          | R_violated (s, cex) ->
              {
                verdict = Violated;
                stats = add_stats acc_stats s;
                cex = Some cex;
              }
          | R_budget s ->
              { verdict = Out_of_budget; stats = add_stats acc_stats s; cex = None })
    in
    go zero (M.roots ~correct ~byzantine)

  let population ~seed ~n ~f =
    Ubpa_harness.Harness.split_population ~seed ~n_correct:(n - f) ~n_byz:f
end
