open Ubpa_util
open Ubpa_harness
open Unknown_ba

let make_ids = Harness.make_ids
let max_f = Harness.max_f
let split_population = Harness.split_population

let is_prefix ~of_:long short =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | a :: sa, b :: sb -> a = b && go (sa, sb)
  in
  go (short, long)

let prefix_ordered a b = is_prefix ~of_:a b || is_prefix ~of_:b a

module Rb = struct
  module P = Reliable_broadcast.Make (Value.String)
  module H = Harness.Make (P)
  module Net = H.Net
  module Attacks = Ubpa_adversary.Rb_attacks.Make (Value.String)

  type summary = {
    n : int;
    f : int;
    rounds : int;
    delivered_msgs : int;
    accepted : (Node_id.t * (string * Node_id.t * int) list) list;
    all_accepted_sender_payload : bool;
    consistent_acceptance : bool;
    max_accept_round : int;
    min_accept_round : int;
  }

  let run ?(seed = 1L) ?(max_rounds = 40) ?(byz = []) ?(byz_sender = false)
      ~n_correct ~payload () =
    let correct_ids, byz_ids =
      split_population ~seed ~n_correct ~n_byz:(List.length byz)
    in
    let sender =
      if byz_sender then List.hd byz_ids else List.hd correct_ids
    in
    let correct =
      List.map
        (fun id ->
          ( id,
            if (not byz_sender) && Node_id.equal id sender then Some payload
            else None ))
        correct_ids
    in
    let byzantine = List.combine byz_ids byz in
    let everyone_accepted net =
      let reports = Net.reports net in
      reports <> []
      && List.for_all
           (fun r ->
             match r.Net.last_output with Some (_ :: _) -> true | _ -> false)
           reports
    in
    (* Two settle rounds so the relay property has finished propagating any
       acceptance that happened on the last round. *)
    let o =
      H.execute ~seed ~max_rounds ~stop:everyone_accepted ~settle:2 ~correct
        ~byzantine ()
    in
    let accepted =
      List.map
        (fun r ->
          let entries =
            match r.Net.last_output with
            | None -> []
            | Some l ->
                List.map
                  (fun a ->
                    (a.P.payload, a.P.sender, a.P.accepted_round))
                  l
          in
          (r.Net.id, entries))
        o.H.reports
    in
    let designated_rounds =
      List.filter_map
        (fun (_, entries) ->
          List.find_map
            (fun (m, s, rd) ->
              if m = payload && Node_id.equal s sender then Some rd else None)
            entries)
        accepted
    in
    let all = List.length designated_rounds = List.length accepted in
    (* All-or-none: every pair accepted somewhere is accepted everywhere. *)
    let consistent =
      let pairs =
        List.concat_map
          (fun (_, entries) -> List.map (fun (m, s, _) -> (m, s)) entries)
        accepted
        |> List.sort_uniq compare
      in
      List.for_all
        (fun pair ->
          List.for_all
            (fun (_, entries) ->
              List.exists (fun (m, s, _) -> (m, s) = pair) entries)
            accepted)
        pairs
    in
    {
      n = n_correct + List.length byz;
      f = List.length byz;
      rounds = o.H.rounds;
      delivered_msgs = o.H.delivered_msgs;
      accepted;
      all_accepted_sender_payload = all;
      consistent_acceptance = consistent;
      max_accept_round =
        List.fold_left max (-1) designated_rounds;
      min_accept_round =
        (match designated_rounds with
        | [] -> -1
        | l -> List.fold_left min max_int l);
    }
end

module Rotor_int = struct
  module P = Rotor.Make (Value.Int)
  module H = Harness.Make (P)
  module Net = H.Net
  module Attacks = Ubpa_adversary.Rotor_attacks.Make (Value.Int)

  type summary = {
    n : int;
    f : int;
    rounds : int;
    delivered_msgs : int;
    all_terminated : bool;
    outputs : (Node_id.t * P.output) list;
    good_round_exists : bool;
    termination_rounds : int list;
  }

  let good_round ~correct_ids outputs =
    match outputs with
    | [] -> false
    | (_, (first : P.output)) :: _ ->
        let indices = List.map fst first.P.selections in
        List.exists
          (fun idx ->
            let coords =
              List.map
                (fun (_, (o : P.output)) -> List.assoc_opt idx o.P.selections)
                outputs
            in
            match coords with
            | Some c :: rest ->
                List.for_all (fun c' -> c' = Some c) rest
                && List.exists (Node_id.equal c) correct_ids
            | _ -> false)
          indices

  let run ?(seed = 2L) ?(max_rounds = 500) ?(byz = []) ~n_correct () =
    let correct_ids, byz_ids =
      split_population ~seed ~n_correct ~n_byz:(List.length byz)
    in
    let correct = List.mapi (fun i id -> (id, i)) correct_ids in
    let byzantine = List.combine byz_ids byz in
    let o = H.execute ~seed ~max_rounds ~correct ~byzantine () in
    {
      n = n_correct + List.length byz;
      f = List.length byz;
      rounds = o.H.rounds;
      delivered_msgs = o.H.delivered_msgs;
      all_terminated = o.H.finished = `All_halted;
      outputs = o.H.outputs;
      good_round_exists = good_round ~correct_ids o.H.outputs;
      termination_rounds =
        List.filter_map (fun r -> r.Net.halted_at) o.H.reports;
    }
end

module Consensus_int = struct
  module P = Consensus.Make (Value.Int)
  module H = Harness.Make (P)
  module Net = H.Net
  module Attacks = Ubpa_adversary.Consensus_attacks.Make (Value.Int)

  type summary = {
    n : int;
    f : int;
    rounds : int;
    delivered_msgs : int;
    outputs : (Node_id.t * int) list;
    agreed : bool;
    valid : bool;
    all_terminated : bool;
    decision_rounds : int list;
  }

  let run ?(seed = 3L) ?(max_rounds = 1000) ?(byz = []) ~n_correct ~inputs ()
      =
    let correct_ids, byz_ids =
      split_population ~seed ~n_correct ~n_byz:(List.length byz)
    in
    let correct = List.mapi (fun i id -> (id, inputs i)) correct_ids in
    let byzantine = List.combine byz_ids byz in
    let o = H.execute ~seed ~max_rounds ~correct ~byzantine () in
    let outputs = o.H.outputs in
    let values = List.map snd outputs in
    let input_values = List.mapi (fun i _ -> inputs i) correct_ids in
    let agreed =
      match values with
      | [] -> false
      | v :: rest ->
          List.for_all (Int.equal v) rest
          && List.length values = List.length correct_ids
    in
    {
      n = n_correct + List.length byz;
      f = List.length byz;
      rounds = o.H.rounds;
      delivered_msgs = o.H.delivered_msgs;
      outputs;
      agreed;
      valid =
        (* Unanimity validity — all Algorithm 3 guarantees for multivalued
           inputs: when every correct input is the same value, that value
           must be the output. For split inputs any common output is
           admissible (a Byzantine coordinator may contribute it). *)
        (match (input_values, values) with
        | [], _ | _, [] -> false
        | iv :: rest, _ ->
            (not (List.for_all (Int.equal iv) rest))
            || List.for_all (Int.equal iv) values);
      all_terminated = o.H.finished = `All_halted;
      decision_rounds =
        List.filter_map (fun r -> r.Net.halted_at) o.H.reports;
    }
end

module Aa = struct
  module P = Approx_agreement
  module H = Harness.Make (Approx_agreement)
  module Net = H.Net

  type summary = {
    n : int;
    f : int;
    rounds : int;
    delivered_msgs : int;
    outputs : (Node_id.t * float) list;
    input_range : float * float;
    output_range : float * float;
    within_range : bool;
    contraction : float;
  }

  let run ?(seed = 4L) ?(byz = []) ?(iterations = 1) ~n_correct ~inputs () =
    let correct_ids, byz_ids =
      split_population ~seed ~n_correct ~n_byz:(List.length byz)
    in
    let correct =
      List.mapi
        (fun i id -> (id, { Approx_agreement.value = inputs i; iterations }))
        correct_ids
    in
    let byzantine = List.combine byz_ids byz in
    let o =
      H.execute ~seed ~max_rounds:(iterations + 5) ~correct ~byzantine ()
    in
    let outputs =
      List.map
        (fun (id, (p : Approx_agreement.progress)) -> (id, p.estimate))
        o.H.outputs
    in
    let input_values = List.mapi (fun i _ -> inputs i) correct_ids in
    let i_lo, i_hi = Stats.min_max input_values in
    let o_lo, o_hi =
      match outputs with
      | [] -> (nan, nan)
      | _ -> Stats.min_max (List.map snd outputs)
    in
    {
      n = n_correct + List.length byz;
      f = List.length byz;
      rounds = o.H.rounds;
      delivered_msgs = o.H.delivered_msgs;
      outputs;
      input_range = (i_lo, i_hi);
      output_range = (o_lo, o_hi);
      within_range = o_lo >= i_lo && o_hi <= i_hi;
      contraction =
        (if i_hi -. i_lo = 0. then 0. else (o_hi -. o_lo) /. (i_hi -. i_lo));
    }

  type dynamic_summary = {
    rounds : int;
    range_per_round : (int * float * float) list;
        (** (round, lowest, highest) active correct estimate *)
    joins_applied : (int * float) list;
    within_global_range : bool;
  }

  let run_dynamic ?(seed = 41L) ?(byz = []) ~n_start ~iterations ~joins
      ~inputs () =
    let total_joins = List.length joins in
    let n_byz = List.length byz in
    let ids = make_ids ~seed (n_start + total_joins + n_byz) in
    let start_ids = List.filteri (fun i _ -> i < n_start) ids in
    let join_ids =
      List.filteri
        (fun i _ -> i >= n_start && i < n_start + total_joins)
        ids
    in
    let byz_ids =
      List.filteri (fun i _ -> i >= n_start + total_joins) ids
    in
    let correct =
      List.mapi
        (fun i id -> (id, { Approx_agreement.value = inputs i; iterations }))
        start_ids
    in
    let net =
      H.create ~seed ~correct ~byzantine:(List.combine byz_ids byz) ()
    in
    let all_values =
      List.mapi (fun i _ -> inputs i) start_ids @ List.map snd joins
    in
    let g_lo, g_hi = Stats.min_max all_values in
    let ranges = ref [] in
    let join_log = ref [] in
    let rec loop round joins join_ids =
      if Net.all_halted net then ()
      else if round > iterations + 5 then ()
      else begin
        let due, later = List.partition (fun (jr, _) -> jr = round) joins in
        let ids_due = List.filteri (fun i _ -> i < List.length due) join_ids in
        let ids_later =
          List.filteri (fun i _ -> i >= List.length due) join_ids
        in
        List.iter2
          (fun (_, v) id ->
            Net.join_correct net id
              {
                Approx_agreement.value = v;
                iterations = max 1 (iterations - round);
              };
            join_log := (round, v) :: !join_log)
          due ids_due;
        Net.step_round net;
        record round;
        loop (round + 1) later ids_later
      end
    and record round =
      let estimates =
        List.filter_map
          (fun r ->
            Option.map
              (fun (p : Approx_agreement.progress) -> p.estimate)
              r.Net.last_output)
          (Net.reports net)
      in
      match estimates with
      | [] -> ranges := (round, 0., 0.) :: !ranges
      | _ ->
          let lo, hi = Stats.min_max estimates in
          ranges := (round, lo, hi) :: !ranges
    in
    loop 1 (List.sort compare joins) join_ids;
    let o = H.collect net ~finished:`Stopped in
    let finals =
      List.filter_map
        (fun r ->
          Option.map
            (fun (p : Approx_agreement.progress) -> p.estimate)
            r.Net.last_output)
        o.H.reports
    in
    let within =
      finals <> []
      && List.for_all (fun v -> v >= g_lo && v <= g_hi) finals
    in
    {
      rounds = o.H.rounds;
      range_per_round = List.rev !ranges;
      joins_applied = List.rev !join_log;
      within_global_range = within;
    }
end

module Parallel_int = struct
  module P = Parallel_consensus.Make (Value.Int)
  module H = Harness.Make (P)
  module Net = H.Net
  module Attacks = Ubpa_adversary.Pc_attacks.Make (Value.Int)

  type summary = {
    n : int;
    f : int;
    rounds : int;
    delivered_msgs : int;
    outputs : (Node_id.t * (int * int) list) list;
    agreed : bool;
    all_terminated : bool;
  }

  let run ?(seed = 5L) ?(max_rounds = 1000) ?(byz = []) ~n_correct ~inputs ()
      =
    let correct_ids, byz_ids =
      split_population ~seed ~n_correct ~n_byz:(List.length byz)
    in
    let correct = List.mapi (fun i id -> (id, inputs i)) correct_ids in
    let byzantine = List.combine byz_ids byz in
    let o = H.execute ~seed ~max_rounds ~correct ~byzantine () in
    let outputs =
      List.map (fun (id, out) -> (id, List.sort compare out)) o.H.outputs
    in
    let agreed =
      match outputs with
      | [] -> false
      | (_, first) :: rest ->
          List.for_all (fun (_, out) -> out = first) rest
          && List.length outputs = List.length correct_ids
    in
    {
      n = n_correct + List.length byz;
      f = List.length byz;
      rounds = o.H.rounds;
      delivered_msgs = o.H.delivered_msgs;
      outputs;
      agreed;
      all_terminated = o.H.finished = `All_halted;
    }
end


module Binary = struct
  module H = Harness.Make (Binary_consensus)
  module Net = H.Net

  type summary = {
    n : int;
    f : int;
    rounds : int;
    delivered_msgs : int;
    outputs : (Node_id.t * bool) list;
    agreed : bool;
    valid : bool;  (** strong validity: output is some correct input *)
    all_terminated : bool;
    decision_rounds : int list;
  }

  let run ?(seed = 9L) ?(max_rounds = 2000) ?(byz = []) ~n_correct ~inputs ()
      =
    let correct_ids, byz_ids =
      split_population ~seed ~n_correct ~n_byz:(List.length byz)
    in
    let correct = List.mapi (fun i id -> (id, inputs i)) correct_ids in
    let byzantine = List.combine byz_ids byz in
    let o = H.execute ~seed ~max_rounds ~correct ~byzantine () in
    let outputs = o.H.outputs in
    let values = List.map snd outputs in
    let input_values = List.mapi (fun i _ -> inputs i) correct_ids in
    let agreed =
      match values with
      | [] -> false
      | v :: rest ->
          List.for_all (Bool.equal v) rest
          && List.length values = List.length correct_ids
    in
    {
      n = n_correct + List.length byz;
      f = List.length byz;
      rounds = o.H.rounds;
      delivered_msgs = o.H.delivered_msgs;
      outputs;
      agreed;
      valid = (match values with [] -> false | v :: _ -> List.mem v input_values);
      all_terminated = o.H.finished = `All_halted;
      decision_rounds =
        List.filter_map (fun r -> r.Net.first_output_round) o.H.reports;
    }
end

module Total_order_str = struct
  module P = Total_order.Make (Value.String)
  module H = Harness.Make (P)
  module Net = H.Net

  type churn = { join_at : (int * int) list; leave_at : (int * int) list }

  let no_churn = { join_at = []; leave_at = [] }

  type summary = {
    rounds : int;
    delivered_msgs : int;
    chains : (Node_id.t * P.chain_output) list;
    prefix_consistent : bool;
    chain_lengths : int list;
    frontier_lags : int list;
    events_submitted : int;
  }

  let run ?(seed = 6L) ?(byz = []) ?(churn = no_churn) ~n_genesis ~rounds
      ~events_per_round () =
    let joiners_total =
      List.fold_left (fun acc (_, k) -> acc + k) 0 churn.join_at
    in
    let all_ids =
      make_ids ~seed (n_genesis + joiners_total + List.length byz)
    in
    let genesis_ids = List.filteri (fun i _ -> i < n_genesis) all_ids in
    let joiner_ids =
      List.filteri
        (fun i _ -> i >= n_genesis && i < n_genesis + joiners_total)
        all_ids
    in
    let byz_ids =
      List.filteri (fun i _ -> i >= n_genesis + joiners_total) all_ids
    in
    let events_submitted = ref 0 in
    let leavers =
      (* the last genesis nodes leave, scheduled by round *)
      List.concat_map
        (fun (round, k) ->
          List.filteri
            (fun i _ -> i >= n_genesis - k)
            genesis_ids
          |> List.map (fun id -> (round, id)))
        churn.leave_at
    in
    let witness_pool = genesis_ids in
    let stimulus ~round id =
      let leave =
        if List.exists (fun (r, i) -> r = round && Node_id.equal i id) leavers
        then [ P.Leave ]
        else []
      in
      let witness =
        if round <= rounds && events_per_round > 0 then begin
          let pool_size = List.length witness_pool in
          let selected =
            List.filteri
              (fun i _ ->
                (i + round) mod pool_size < events_per_round)
              witness_pool
          in
          if List.exists (Node_id.equal id) selected then begin
            incr events_submitted;
            [ P.Witness (Printf.sprintf "ev-r%d-%s" round (Fmt.to_to_string Node_id.pp id)) ]
          end
          else []
        end
        else []
      in
      leave @ witness
    in
    let correct = List.map (fun id -> (id, P.Genesis)) genesis_ids in
    let byzantine = List.combine byz_ids byz in
    let net = H.create ~seed ~stimulus ~correct ~byzantine () in
    let joins =
      List.concat_map
        (fun (round, k) -> List.init k (fun i -> (round, i)))
        churn.join_at
      |> List.mapi (fun idx (round, _) -> (round, List.nth joiner_ids idx))
    in
    let drain = (5 * (n_genesis + joiners_total) / 2) + 30 in
    for r = 1 to rounds + drain do
      List.iter
        (fun (jr, id) -> if jr = r then Net.join_correct net id P.Joiner)
        joins;
      Net.step_round net
    done;
    let o = H.collect net ~finished:`Stopped in
    let chains = o.H.outputs in
    let entry_list (out : P.chain_output) =
      List.map (fun e -> (e.P.group, Node_id.to_int e.P.origin, e.P.event)) out.chain
    in
    let prefix_consistent =
      let rec pairs = function
        | [] | [ _ ] -> true
        | (_, a) :: rest ->
            List.for_all
              (fun (_, b) ->
                let la = entry_list a and lb = entry_list b in
                match (la, lb) with
                | [], _ | _, [] -> true
                | (ga, _, _) :: _, (gb, _, _) :: _ ->
                    let g0 = max ga gb in
                    let cut l =
                      List.filter (fun (g, _, _) -> g >= g0) l
                    in
                    prefix_ordered (cut la) (cut lb))
              rest
            && pairs rest
      in
      pairs chains
    in
    {
      rounds = o.H.rounds;
      delivered_msgs = o.H.delivered_msgs;
      chains;
      prefix_consistent;
      chain_lengths = List.map (fun (_, out) -> List.length out.P.chain) chains;
      frontier_lags =
        List.map
          (fun (_, (out : P.chain_output)) -> out.logical_round - out.frontier)
          chains;
      events_submitted = !events_submitted;
    }
end

module Renaming_run = struct
  module H = Harness.Make (Renaming)
  module Net = H.Net

  type summary = {
    n : int;
    f : int;
    rounds : int;
    delivered_msgs : int;
    outputs : (Node_id.t * Renaming.output) list;
    consistent : bool;
    names_are_dense : bool;
    all_terminated : bool;
  }

  let run ?(seed = 7L) ?(max_rounds = 300) ?(byz = []) ~n_correct () =
    let correct_ids, byz_ids =
      split_population ~seed ~n_correct ~n_byz:(List.length byz)
    in
    let correct = List.map (fun id -> (id, ())) correct_ids in
    let byzantine = List.combine byz_ids byz in
    let o = H.execute ~seed ~max_rounds ~correct ~byzantine () in
    let outputs = o.H.outputs in
    let consistent =
      match outputs with
      | [] -> false
      | (_, first) :: rest ->
          List.for_all
            (fun (_, (out : Renaming.output)) -> out.names = first.Renaming.names)
            rest
          && List.length outputs = List.length correct_ids
    in
    let names_are_dense =
      List.for_all
        (fun (_, (out : Renaming.output)) ->
          let ranks = List.map snd out.names |> List.sort Int.compare in
          ranks = List.init (List.length ranks) (fun i -> i + 1))
        outputs
    in
    {
      n = n_correct + List.length byz;
      f = List.length byz;
      rounds = o.H.rounds;
      delivered_msgs = o.H.delivered_msgs;
      outputs;
      consistent;
      names_are_dense;
      all_terminated = o.H.finished = `All_halted;
    }
end

module Trb_str = struct
  module P = Terminating_rb.Make (Value.String)
  module H = Harness.Make (P)
  module Net = H.Net

  type summary = {
    n : int;
    f : int;
    rounds : int;
    delivered_msgs : int;
    outputs : (Node_id.t * string option) list;
    agreed : bool;
    all_terminated : bool;
  }

  let run ?(seed = 8L) ?(max_rounds = 1000) ?(byz = []) ?(byz_sender = false)
      ~n_correct ~payload () =
    let correct_ids, byz_ids =
      split_population ~seed ~n_correct ~n_byz:(List.length byz)
    in
    let sender =
      if byz_sender then List.hd byz_ids else List.hd correct_ids
    in
    let correct =
      List.map
        (fun id ->
          let payload =
            if (not byz_sender) && Node_id.equal id sender then Some payload
            else None
          in
          (id, { P.sender; payload }))
        correct_ids
    in
    let byzantine = List.combine byz_ids byz in
    let o = H.execute ~seed ~max_rounds ~correct ~byzantine () in
    let outputs = o.H.outputs in
    let agreed =
      match outputs with
      | [] -> false
      | (_, first) :: rest ->
          List.for_all (fun (_, out) -> out = first) rest
          && List.length outputs = List.length correct_ids
    in
    {
      n = n_correct + List.length byz;
      f = List.length byz;
      rounds = o.H.rounds;
      delivered_msgs = o.H.delivered_msgs;
      outputs;
      agreed;
      all_terminated = o.H.finished = `All_halted;
    }
end

module Committee_int = struct
  module P = Committee_agreement.Make (Value.Int)
  module H = Harness.Make (P)
  module Net = H.Net
  module Attacks = Ubpa_adversary.Committee_attacks.Make (Value.Int)

  type summary = {
    n : int;
    f : int;
    rounds : int;
    delivered_msgs : int;
    outputs : (Node_id.t * int) list;
    agreed : bool;
    valid : bool;
    all_terminated : bool;
    decision_rounds : int list;
    committee : Node_id.t list;
    byz_members : int;
    attestor_q : int;
    max_budget_msgs : int;
    max_budget_bits : int;
    monitor_green : bool;
  }

  let run ?(seed = 10L) ?(max_rounds = 400) ?(byz = []) ?delivery ?trace
      ~n_correct ~inputs () =
    let correct_ids, byz_ids =
      split_population ~seed ~n_correct ~n_byz:(List.length byz)
    in
    let universe = Node_id.sorted (correct_ids @ byz_ids) in
    let correct =
      List.mapi
        (fun i id -> (id, { P.value = inputs i; seed; universe }))
        correct_ids
    in
    let byzantine = List.combine byz_ids byz in
    let input_values = List.mapi (fun i _ -> inputs i) correct_ids in
    let unanimous =
      match input_values with
      | [] -> None
      | v :: rest -> if List.for_all (Int.equal v) rest then Some v else None
    in
    let monitor =
      Ubpa_monitor.create
        [
          Ubpa_monitor.agreement ~equal:Int.equal ~pp:Fmt.int ();
          Ubpa_monitor.validity
            ~ok:(fun _ out ->
              match unanimous with None -> true | Some v -> Int.equal v out)
            ();
        ]
    in
    let o =
      H.execute ?delivery ?trace ~seed ~max_rounds ~classify:P.kind ~monitor
        ~correct ~byzantine ()
    in
    let outputs = o.H.outputs in
    let values = List.map snd outputs in
    let agreed =
      match values with
      | [] -> false
      | v :: rest ->
          List.for_all (Int.equal v) rest
          && List.length values = List.length correct_ids
    in
    let committee = Unknown_ba.Committee.members ~seed ~universe in
    let byz_members =
      List.length
        (List.filter
           (fun id -> List.exists (Node_id.equal id) byz_ids)
           committee)
    in
    (* The per-processor budget the CX2 envelope bounds is a statement
       about correct nodes: a flooding adversary burns Θ(n) of its own
       sent-side budget per round, and that spend must not be what the
       fit measures. Received-side inflation from those floods still
       lands on correct nodes and still counts. *)
    let wire = Net.wire o.H.net in
    let budget =
      List.fold_left
        (fun (acc : Ubpa_obs.Wire.count) id ->
          let b = Ubpa_obs.Wire.budget_of wire id in
          if b.Ubpa_obs.Wire.bits > acc.Ubpa_obs.Wire.bits then b else acc)
        { Ubpa_obs.Wire.msgs = 0; bits = 0 }
        correct_ids
    in
    {
      n = n_correct + List.length byz;
      f = List.length byz;
      rounds = o.H.rounds;
      delivered_msgs = o.H.delivered_msgs;
      outputs;
      agreed;
      valid =
        (* Unanimity validity, with high probability over the seed: when
           every correct input is the same value, the sampled committee
           decides it and the spreading phase carries it everywhere. *)
        (match (unanimous, values) with
        | _, [] -> false
        | None, _ -> true
        | Some v, _ -> List.for_all (Int.equal v) values);
      all_terminated = o.H.finished = `All_halted;
      decision_rounds = List.filter_map (fun r -> r.Net.halted_at) o.H.reports;
      committee;
      byz_members;
      attestor_q = Unknown_ba.Committee.attestor_size (List.length universe);
      max_budget_msgs = budget.Ubpa_obs.Wire.msgs;
      max_budget_bits = budget.Ubpa_obs.Wire.bits;
      monitor_green = Ubpa_monitor.all_green monitor;
    }
end
