(* Checker models for the two core protocols. The palettes are the
   curated adversary vocabularies of model M1 — see docs/CHECKING.md for
   the closure argument (why messages outside the palette cannot reach
   states the palette cannot). *)

open Ubpa_util

let universe = [ "A"; "B" ]

module Rb = struct
  module P = Unknown_ba.Reliable_broadcast.Make (Unknown_ba.Value.String)

  let name = "rb"

  (* Two roots: a Byzantine designated sender (every correct node starts
     with [None]) — the consistency-critical case — and a correct
     designated sender (first correct id broadcasts "A"), which exercises
     correctness/relay under forged echoes. *)
  let roots ~correct ~byzantine =
    let silent = List.map (fun _ -> None) correct in
    let correct_sender =
      match correct with
      | [] -> []
      | _ :: rest -> Some (List.hd universe) :: List.map (fun _ -> None) rest
    in
    if byzantine = [] then [ ("correct-sender", correct_sender) ]
    else
      [ ("byz-sender", silent); ("correct-sender", correct_sender) ]

  (* Arrival round 2: the byz sender's (possibly equivocating) payload, or
     an innocuous [Present]. Later rounds: forged echoes — attributed to
     the byz node itself (consistency attacks) or to the first correct
     node (unforgeability attacks). Echoes for later senders add nothing:
     acceptance is per (payload, sender) and thresholds only count
     distinct echoers. *)
  let palette ~arrival ~correct ~byzantine =
    match byzantine with
    | [] -> []
    | b0 :: _ ->
        if arrival <= 1 then []
        else if arrival = 2 then
          P.inject P.Present
          :: List.map (fun v -> P.inject (P.Payload v)) universe
        else
          let attributed =
            match correct with [] -> [ b0 ] | c0 :: _ -> [ b0; c0 ]
          in
          List.concat_map
            (fun s -> List.map (fun v -> P.inject (P.Echo (v, s))) universe)
            attributed

  let copy_state = P.copy_state
  let state_key = P.state_key

  let input_key = Key.to_string (Key.option Key.string)

  (* Sorted, like the accepted list inside [P.state_key]. *)
  let output_key out =
    List.map (fun (a : P.accepted) -> (a.payload, a.sender, a.accepted_round)) out
    |> List.sort compare
    |> Key.to_string
         (Key.list (fun b (payload, sender, round) ->
              Key.string b payload;
              Key.id b sender;
              Key.int b round))

  (* RB's dynamics are id-order-free (thresholds count distinct echoers);
     only the designated sender and the echo-attribution target are
     pinned by name. *)
  let recipient_symmetric = true

  let pinned ~correct ~byzantine:_ =
    match correct with [] -> [] | c0 :: _ -> [ c0 ]

  (* Safety properties of Algorithm 1. RB never terminates, so the
     checked properties are the safety halves:
     - unforgeability: an accepted pair attributed to a correct node
       matches that node's actual input;
     - relay-totality: once any live node has held an acceptance for two
       full rounds, every live node must hold it (the paper's relay
       property gives one round for n > 3f; the checker allows two so the
       bound is conservative at tiny n, and boundary cells still violate
       it — see docs/CHECKING.md). *)
  let properties ~correct:_ ~byzantine:_ =
    let find_input obs id =
      List.find_map
        (fun o ->
          if Node_id.equal o.Model.ob_id id then Some o.Model.ob_input
          else None)
        obs
    in
    let accepted o = match o.Model.ob_output with None -> [] | Some l -> l in
    [
      ( "rb-unforgeability",
        fun ~round:_ obs ->
          List.find_map
            (fun o ->
              List.find_map
                (fun (a : P.accepted) ->
                  match find_input obs a.sender with
                  | Some (Some v) when String.equal v a.payload -> None
                  | Some input ->
                      Some
                        (Fmt.str
                           "%a accepted (%s, %a) but correct %a's input is %s"
                           Node_id.pp o.Model.ob_id a.payload Node_id.pp
                           a.sender Node_id.pp a.sender
                           (Option.value ~default:"-" input))
                  | None -> (* attributed to a byzantine node *) None)
                (accepted o))
            obs );
      ( "rb-relay-totality",
        fun ~round obs ->
          let live = List.filter (fun o -> not o.Model.ob_down) obs in
          List.find_map
            (fun o ->
              List.find_map
                (fun (a : P.accepted) ->
                  if a.accepted_round > round - 2 then None
                  else
                    List.find_map
                      (fun o' ->
                        let has =
                          List.exists
                            (fun (a' : P.accepted) ->
                              String.equal a'.payload a.payload
                              && Node_id.equal a'.sender a.sender)
                            (accepted o')
                        in
                        if has then None
                        else
                          Some
                            (Fmt.str
                               "%a accepted (%s, %a) in round %d but %a \
                                still lacks it in round %d"
                               Node_id.pp o.Model.ob_id a.payload Node_id.pp
                               a.sender a.accepted_round Node_id.pp
                               o'.Model.ob_id round))
                      live)
                (accepted o))
            live );
    ]
end

module Consensus = struct
  module P = Unknown_ba.Consensus.Make (Unknown_ba.Value.Int)

  let name = "consensus"

  let values = [ 0; 1 ]

  (* Unanimous roots in both polarities (max_by_count tie-breaking is not
     0/1-symmetric, so neither subsumes the other) plus the two mixed
     assignments at the split position. *)
  let roots ~correct ~byzantine:_ =
    let const v = List.map (fun _ -> v) correct in
    let mixed a b =
      List.mapi (fun i _ -> if i = 0 then a else b) correct
    in
    [
      ("all-0", const 0);
      ("all-1", const 1);
      ("mixed-01", mixed 0 1);
      ("mixed-10", mixed 1 0);
    ]

  (* The protocol's round schedule (local_round = global round for nodes
     joining at round 1): round 1 [Init], round 2 [Cand_echo], round 3
     freezes membership, then five-round phases with position
     [((local_round - 3) mod 5) + 1]. A message arriving in round [a] is
     read by the handler for position [(a - 3) mod 5 + 1] once [a >= 4].
     The palette offers the constructors each handler tallies, with two
     documented curations that keep the n = 4 cells tractable
     (docs/CHECKING.md): no late [Init] at arrival 3 (selective round-1
     [Init] already yields every heterogeneous-membership split, the
     paper's central hazard) and no byz [Cand_echo] votes (b0's candidacy
     is already echoed by every correct node that heard its [Init]).
     Other constructors at the wrong position are dead traffic the
     handlers ignore, so excluding them loses no reachable states. *)
  let palette ~arrival ~correct:_ ~byzantine =
    match byzantine with
    | [] -> []
    | _ -> (
        if arrival <= 2 then if arrival = 2 then [ P.Core.Init ] else []
        else
          match ((arrival - 3) mod 5) + 1 with
          | 2 -> List.map (fun v -> P.Core.Input v) values
          | 3 -> List.map (fun v -> P.Core.Prefer v) values
          | 4 -> List.map (fun v -> P.Core.Strongprefer v) values
          | 5 -> List.map (fun v -> P.Core.Opinion v) values
          | _ -> [])

  let copy_state = P.copy_state
  let state_key = P.state_key
  let input_key = Key.to_string Key.int
  let output_key = Key.to_string Key.int

  (* The rotor coordinator is List.nth of the sorted candidate set —
     id-order-sensitive, so correct nodes are never interchangeable. *)
  let recipient_symmetric = false
  let pinned ~correct ~byzantine:_ = correct

  let properties ~correct:_ ~byzantine:_ =
    [
      ( "agreement",
        fun ~round:_ obs ->
          let decided =
            List.filter_map
              (fun o ->
                if o.Model.ob_halted then
                  Option.map (fun v -> (o.Model.ob_id, v)) o.Model.ob_output
                else None)
              obs
          in
          match decided with
          | [] | [ _ ] -> None
          | (id0, v0) :: rest ->
              List.find_map
                (fun (id, v) ->
                  if v = v0 then None
                  else
                    Some
                      (Fmt.str "%a decided %d but %a decided %d" Node_id.pp
                         id0 v0 Node_id.pp id v))
                rest );
      ( "unanimity-validity",
        fun ~round:_ obs ->
          match obs with
          | [] -> None
          | o0 :: rest ->
              let v = o0.Model.ob_input in
              if List.for_all (fun o -> o.Model.ob_input = v) rest then
                List.find_map
                  (fun o ->
                    match o.Model.ob_output with
                    | Some d when o.Model.ob_halted && d <> v ->
                        Some
                          (Fmt.str
                             "inputs unanimous at %d but %a decided %d" v
                             Node_id.pp o.Model.ob_id d)
                    | _ -> None)
                  obs
              else None );
    ]
end
