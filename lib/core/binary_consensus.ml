open Ubpa_util
open Ubpa_sim

type input = bool
type output = bool

type message =
  | Init
  | Cand_echo of Node_id.t
  | Input of bool
  | Support of bool
  | Opinion of bool

type stimulus = Protocol.No_stimulus.t

module Bool_tally = Tally.Make (Bool)

type state = {
  self : Node_id.t;
  index : Interner.t;  (** the run's sender index, shared *)
  rotor : Rotor_core.t;
  mutable x_v : bool;
  mutable local_round : int;
  mutable heard_from : Node_id.Set.t;  (** n_v is cumulative here *)
  mutable cand_buffer : (Node_id.t * Node_id.t) list;
  mutable coordinator : Node_id.t option;
  mutable strong_support : bool;
      (** saw a 2n_v/3 support quorum in this phase's position 3 *)
  mutable rotor_finished : bool;
  mutable decided : bool option;
      (** set when the rotor broke; the node participates for one more full
          phase (termination skew is at most one phase) before halting, so
          laggards still see its input/support broadcasts *)
}

let name = "binary-consensus"

let init ~self ~round:_ ~index input =
  {
    self;
    index;
    rotor = Rotor_core.create ~index ();
    x_v = input;
    local_round = 0;
    heard_from = Node_id.Set.empty;
    cand_buffer = [];
    coordinator = None;
    strong_support = false;
    rotor_finished = false;
    decided = None;
  }

let pp_message ppf = function
  | Init -> Fmt.string ppf "init"
  | Cand_echo p -> Fmt.pf ppf "echo(%a)" Node_id.pp p
  | Input x -> Fmt.pf ppf "input(%b)" x
  | Support x -> Fmt.pf ppf "support(%b)" x
  | Opinion x -> Fmt.pf ppf "opinion(%b)" x

(* Ground constructors (bools and node ids only): the structural order is
   already the right one. *)
include Protocol.Structural (struct
  type t = message
end)

(* The structural size model charges a full 64-bit word per immediate, which
   misprices this protocol badly: its whole point is voting with single
   bits. Spell the wire content out by hand — a 3-bit constructor tag
   (5 constructors), one bit per boolean, one id-sized word for the echoed
   candidate — so the bit-complexity experiments measure what the paper
   counts. *)
let encoded_bits = function
  | Init -> 3
  | Cand_echo _ -> 3 + Ubpa_obs.Sizing.word_bits
  | Input _ | Support _ | Opinion _ -> 3 + 1

let current_opinion st = st.x_v

let phase st =
  if st.local_round < 3 then 0 else ((st.local_round - 3) / 5) + 1

let position st = ((st.local_round - 3) mod 5) + 1

let tally_bool st inbox ~extract =
  let t = Bool_tally.create ~index:st.index () in
  List.iter
    (fun (src, msg) ->
      match extract msg with
      | Some x -> Bool_tally.add t ~sender:src x
      | None -> ())
    inbox;
  t

let step ~self:_ ~round:_ ~stim:_ st ~inbox =
  st.local_round <- st.local_round + 1;
  List.iter
    (fun (src, _) -> st.heard_from <- Node_id.Set.add src st.heard_from)
    inbox;
  let n_v = Node_id.Set.cardinal st.heard_from in
  List.iter
    (fun (src, msg) ->
      match msg with
      | Cand_echo p -> st.cand_buffer <- (src, p) :: st.cand_buffer
      | _ -> ())
    inbox;
  match st.local_round with
  | 1 -> (st, [ (Envelope.Broadcast, Init) ], Protocol.Continue)
  | 2 ->
      let sends =
        List.filter_map
          (fun (src, msg) ->
            match msg with
            | Init -> Some (Envelope.Broadcast, Cand_echo src)
            | _ -> None)
          inbox
      in
      (st, sends, Protocol.Continue)
  | _ -> (
      match position st with
      | 1 ->
          st.strong_support <- false;
          st.coordinator <- None;
          (st, [ (Envelope.Broadcast, Input st.x_v) ], Protocol.Continue)
      | 2 ->
          let t =
            tally_bool st inbox ~extract:(function
              | Input x -> Some x
              | _ -> None)
          in
          let sends =
            match Bool_tally.max_by_count t with
            | Some (x, count) when Threshold.ge_two_thirds ~count ~of_:n_v ->
                [ (Envelope.Broadcast, Support x) ]
            | _ -> []
          in
          (st, sends, Protocol.Continue)
      | 3 ->
          let t =
            tally_bool st inbox ~extract:(function
              | Support x -> Some x
              | _ -> None)
          in
          (match Bool_tally.max_by_count t with
          | Some (x, count) when Threshold.ge_third ~count ~of_:n_v ->
              if st.decided = None then st.x_v <- x;
              st.strong_support <- Threshold.ge_two_thirds ~count ~of_:n_v
          | _ -> st.strong_support <- false);
          (st, [], Protocol.Continue)
      | 4 ->
          let echoes = st.cand_buffer in
          st.cand_buffer <- [];
          let res =
            Rotor_core.rotor_round st.rotor ~self:st.self ~n_v ~echoes
          in
          st.coordinator <- res.selected;
          st.rotor_finished <- res.finished;
          let sends =
            List.map (fun p -> (Envelope.Broadcast, Cand_echo p)) res.relay_echoes
          in
          let sends =
            if res.i_am_coordinator then
              (Envelope.Broadcast, Opinion st.x_v) :: sends
            else sends
          in
          (st, sends, Protocol.Continue)
      | _ ->
          (* Adopt the coordinator unless this phase produced a strong
             support quorum. *)
          let coordinator_opinion =
            match st.coordinator with
            | None -> None
            | Some p ->
                List.fold_left
                  (fun acc (src, msg) ->
                    match msg with
                    | Opinion c when Node_id.equal src p -> Some c
                    | _ -> acc)
                  None inbox
          in
          (match coordinator_opinion with
          | Some c when (not st.strong_support) && st.decided = None ->
              st.x_v <- c
          | _ -> ());
          (match st.decided with
          | Some d ->
              (* Zombie phase complete: every laggard has terminated too. *)
              (st, [], Protocol.Stop d)
          | None ->
              if st.rotor_finished then begin
                st.decided <- Some st.x_v;
                (st, [], Protocol.Deliver st.x_v)
              end
              else (st, [], Protocol.Continue)))
