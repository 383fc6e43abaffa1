open Ubpa_util
open Ubpa_sim
module Id_tally = Tally.Make (Node_id)

type t = {
  index : Interner.t;  (** the run's sender index, shared *)
  mutable c : Node_id.t list;  (** candidate coordinators, ascending *)
  mutable s : Node_id.Set.t;  (** already-selected coordinators *)
  mutable r : int;  (** loop index, starts at 0 *)
  mutable history : (int * Node_id.t) list;  (** newest first *)
  mutable heard : (Node_id.t * Node_id.t) list;
      (** (sender, candidate) echoes heard since the last turn, newest
          first *)
}

let create ~index () =
  { index; c = []; s = Node_id.Set.empty; r = 0; history = []; heard = [] }

let opening ~local_round ~init ~is_init ~echo inbox =
  if local_round = 1 then [ (Envelope.Broadcast, init) ]
  else
    List.filter_map
      (fun (src, msg) ->
        if is_init msg then Some (Envelope.Broadcast, echo src) else None)
      inbox

let hear t ~sender p = t.heard <- (sender, p) :: t.heard

type 'm turn = {
  selected : Node_id.t option;
  loop_index : int;
  finished : bool;
  sends : (Envelope.dest * 'm) list;
}

let turn t ~self ~n_v ~echo ~opinions =
  let tally = Id_tally.create ~index:t.index () in
  List.iter (fun (sender, p) -> Id_tally.add tally ~sender p) t.heard;
  t.heard <- [];
  let fresh p = not (List.exists (Node_id.equal p) t.c) in
  (* B_v gathers re-echoes for candidates past n_v/3 (reliable-broadcast
     relay step); candidates past 2n_v/3 enter C_v before selection. *)
  let relay_echoes =
    Id_tally.meeting tally ~threshold:(fun count ->
        Threshold.ge_third ~count ~of_:n_v)
    |> List.filter fresh
  in
  let adds =
    Id_tally.meeting tally ~threshold:(fun count ->
        Threshold.ge_two_thirds ~count ~of_:n_v)
    |> List.filter fresh
  in
  if adds <> [] then t.c <- Node_id.sorted (adds @ t.c);
  let loop_index = t.r in
  t.r <- t.r + 1;
  let selected, finished =
    match t.c with
    | [] -> (None, false)
    | _ :: _ ->
        let size = List.length t.c in
        let p = List.nth t.c (loop_index mod size) in
        if Node_id.Set.mem p t.s && loop_index >= size then
          (* Re-selection after the index wrapped: Algorithm 2's "break".
             The proof of Lemma "rc-gdrnd" derives its contradiction from
             "selecting the same identifier again implies r > |C_v|", so the
             wrap is part of the break condition. Without it a late
             insertion of a smaller identifier shifts C_v and re-hits an
             already-selected coordinator early (see DESIGN.md). *)
          (None, true)
        else begin
          (* Either a fresh coordinator, or a shift-induced repeat before the
             wrap — in the latter case the round simply repeats p's turn. *)
          t.s <- Node_id.Set.add p t.s;
          t.history <- (loop_index, p) :: t.history;
          (Some p, false)
        end
  in
  let relays = List.map (fun p -> (Envelope.Broadcast, echo p)) relay_echoes in
  let sends =
    match selected with
    | Some p when Node_id.equal p self ->
        List.map (fun m -> (Envelope.Broadcast, m)) (opinions ()) @ relays
    | Some _ | None -> relays
  in
  { selected; loop_index; finished; sends }

let opinion_of coordinator ~opinion inbox =
  match coordinator with
  | None -> None
  | Some p ->
      List.fold_left
        (fun acc (src, msg) ->
          if Node_id.equal src p then
            match opinion msg with Some _ as x -> x | None -> acc
          else acc)
        None inbox

let candidates t = t.c
let selections t = List.rev t.history

(* The mutable fields hold immutable values, so a fresh record is an
   independent copy. *)
let copy t = { t with r = t.r }

(* Canonical description of the parts of the rotor that influence future
   rounds: C_v (already ascending), S_v (a set), the loop index, and the
   buffered echoes, sorted (the tally's thresholds never depend on their
   order). [history] only feeds introspection and [index] is the run's
   shared table, so neither belongs in the fingerprint. *)
let fingerprint b t =
  let by_sender (s, p) (s', p') =
    match Node_id.compare s s' with 0 -> Node_id.compare p p' | c -> c
  in
  Key.list Key.id b t.c;
  Key.list Key.id b (Node_id.Set.elements t.s);
  Key.int b t.r;
  Key.list
    (fun b (s, p) ->
      Key.id b s;
      Key.id b p)
    b
    (List.sort by_sender t.heard)
